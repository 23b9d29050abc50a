package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/scripts"
)

func testKeyInputs() (string, map[string]interface{}, []InputMeta, conf.Cluster, Options) {
	src := "X = read($X);\nprint(nrow(X));"
	params := map[string]interface{}{"X": "/data/X", "eps": 1e-6}
	inputs := []InputMeta{
		{Path: "/data/X", Rows: 1000, Cols: 10, NNZ: 10000, Format: "binary"},
		{Path: "/data/y", Rows: 1000, Cols: 1, NNZ: 1000, Format: "binary"},
	}
	return src, params, inputs, conf.DefaultCluster(), DefaultOptions()
}

// TestCacheKeySensitivity: the key must change with anything that can
// change an optimization outcome, and must NOT change with knobs that are
// guaranteed result-neutral (worker count, time budget).
func TestCacheKeySensitivity(t *testing.T) {
	src, params, inputs, cc, opts := testKeyInputs()
	base := CacheKey(src, params, inputs, cc, opts)
	if base != CacheKey(src, params, inputs, cc, opts) {
		t.Fatal("key not deterministic")
	}

	mut := func(name string, f func()) string {
		f()
		k := CacheKey(src, params, inputs, cc, opts)
		if k == base {
			t.Errorf("%s: key did not change", name)
		}
		src, params, inputs, cc, opts = testKeyInputs()
		return k
	}
	mut("source", func() { src += "\n# tweak" })
	mut("param value", func() { params["eps"] = 1e-5 })
	mut("param added", func() { params["extra"] = true })
	mut("input rows", func() { inputs[0].Rows++ })
	mut("input nnz", func() { inputs[1].NNZ-- })
	mut("input dropped", func() { inputs = inputs[:1] })
	mut("cluster nodes", func() { cc.Nodes-- })
	mut("cluster max alloc", func() { cc.MaxAlloc /= 2 })
	mut("cluster mem", func() { cc.MemPerNode -= conf.GB })
	mut("grid points", func() { opts.Points = 3 })
	mut("pruning", func() { opts.DisablePruning = true })
	mut("core candidates", func() { opts.CPCoreCandidates = []int{1, 2} })
	mut("cluster load", func() { opts.ClusterLoad = 0.5 })

	// Result-neutral knobs: parallel enumeration returns the same result
	// (TestSearchPathsMatchFresh) and the time budget only bounds effort.
	opts.Workers = 8
	if CacheKey(src, params, inputs, cc, opts) != base {
		t.Error("worker count changed the key")
	}
	opts = DefaultOptions()
	opts.TimeBudget = time.Second
	if CacheKey(src, params, inputs, cc, opts) != base {
		t.Error("time budget changed the key")
	}

	// Param and input order must not matter (canonicalized by sorting).
	inputs[0], inputs[1] = inputs[1], inputs[0]
	if CacheKey(src, params, inputs, cc, opts) != base {
		t.Error("input order changed the key")
	}
}

// cacheKeyExcluded lists the conf.Cluster and Options fields CacheKey
// deliberately leaves out, each with its reason.
var cacheKeyExcluded = map[string]string{
	"Options.Workers":    "the task-parallel search is bit-identical to the sequential one (TestSearchPathsMatchFresh)",
	"Options.TimeBudget": "the service never sets one; a budget would make outcomes wall-clock dependent",
}

// TestCacheKeyCoversFields perturbs every field of conf.Cluster and
// Options. A covered field must change CacheKey and an excluded one must
// not, so a field added to either struct fails here until it is classified.
func TestCacheKeyCoversFields(t *testing.T) {
	src, params, inputs, cc, opts := testKeyInputs()
	base := CacheKey(src, params, inputs, cc, opts)
	seen := map[string]bool{}
	for _, target := range []reflect.Value{reflect.ValueOf(&cc).Elem(), reflect.ValueOf(&opts).Elem()} {
		typ := target.Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			f := target.Field(i)
			saved := reflect.New(f.Type()).Elem()
			saved.Set(f)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Slice:
				f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
			default:
				t.Fatalf("%s has kind %s: teach this test to change it, then cover it in CacheKey or list it in cacheKeyExcluded", name, f.Kind())
			}
			changed := CacheKey(src, params, inputs, cc, opts) != base
			f.Set(saved)
			if _, excluded := cacheKeyExcluded[name]; excluded && changed {
				t.Errorf("%s is listed as excluded but changes the key", name)
			} else if !excluded && !changed {
				t.Errorf("%s: changing it leaves the key unchanged; cover it in CacheKey or list it in cacheKeyExcluded with a reason", name)
			}
		}
	}
	for name := range cacheKeyExcluded {
		if !seen[name] {
			t.Errorf("cacheKeyExcluded names %s, which is not a field", name)
		}
	}
}

// TestCacheKeyCollisions: adversarial params and paths that collided under
// the old newline/colon-delimited %v encoding must produce distinct keys.
// Every field is now length-prefixed and type-tagged, so no byte choice in
// one field can shift another field's boundary.
func TestCacheKeyCollisions(t *testing.T) {
	src, _, inputs, cc, opts := testKeyInputs()
	key := func(params map[string]interface{}, ins []InputMeta) string {
		return CacheKey(src, params, ins, cc, opts)
	}

	cases := []struct {
		name string
		a, b string
	}{
		{
			// Old scheme: both hashed "param:a=1\n".
			"string 1 vs int 1",
			key(map[string]interface{}{"a": "1"}, inputs),
			key(map[string]interface{}{"a": 1}, inputs),
		},
		{
			"int 1 vs float 1",
			key(map[string]interface{}{"a": 1}, inputs),
			key(map[string]interface{}{"a": 1.0}, inputs),
		},
		{
			// Old scheme: both hashed "param:a=true\n".
			"bool true vs string true",
			key(map[string]interface{}{"a": true}, inputs),
			key(map[string]interface{}{"a": "true"}, inputs),
		},
		{
			// Old scheme: the embedded newline forged a second param line.
			"newline injection in value",
			key(map[string]interface{}{"a": "x\nparam:b=1"}, inputs),
			key(map[string]interface{}{"a": "x", "b": 1}, inputs),
		},
		{
			// Old scheme: "param:a=b=c\n" was ambiguous about the '=' split.
			"delimiter in name vs value",
			key(map[string]interface{}{"a=b": "c"}, inputs),
			key(map[string]interface{}{"a": "b=c"}, inputs),
		},
		{
			// Old scheme: a path containing "\nin:..." forged a second
			// input-meta line.
			"newline injection in path",
			key(nil, []InputMeta{{Path: "/a\nin:/b:1x1:1:dense", Rows: 1, Cols: 1, NNZ: 1, Format: "dense"}}),
			key(nil, []InputMeta{
				{Path: "/a", Rows: 1, Cols: 1, NNZ: 1, Format: "dense"},
				{Path: "/b", Rows: 1, Cols: 1, NNZ: 1, Format: "dense"},
			}),
		},
		{
			// Old scheme: "in:/x:1:2x3..." — a colon in the path shifted
			// every later field.
			"colon in path shifts dims",
			key(nil, []InputMeta{{Path: "/x:1", Rows: 2, Cols: 3, NNZ: 1, Format: "dense"}}),
			key(nil, []InputMeta{{Path: "/x", Rows: 1, Cols: 2, NNZ: 1, Format: "3:dense"}}),
		},
	}
	for _, c := range cases {
		if c.a == c.b {
			t.Errorf("%s: keys collide", c.name)
		}
	}
}

// TestCacheLRU: capacity bounds entries, lookups refresh recency, and the
// least recently used entry is the one evicted.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	r := conf.NewResources(conf.GB, 512*conf.MB, 2)
	c.Insert("a", r, 1)
	c.Insert("b", r, 2)
	if _, _, ok := c.Lookup("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Insert("c", r, 3) // evicts b
	if _, _, ok := c.Lookup("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, _, ok := c.Lookup("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, cost, ok := c.Lookup("c"); !ok || cost != 3 {
		t.Errorf("c lookup: ok=%v cost=%v", ok, cost)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Insertions != 3 {
		t.Errorf("stats: %+v", st)
	}
	// Hits: a, a, c = 3; misses: initial a+b+c inserts don't count, but the
	// failed b lookup does.
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hit/miss accounting: %+v", st)
	}
	if hr := st.HitRate(); hr <= 0.74 || hr >= 0.76 {
		t.Errorf("hit rate %v, want 0.75", hr)
	}
}

// TestCacheOutcomeLivesWithItsEntry: a value attached to an entry is neither
// a lookup nor a use — counters and recency do not move — and it goes when
// the entry is re-inserted or evicted. Without an entry there is nothing to
// attach to; a nil cache keeps nothing.
func TestCacheOutcomeLivesWithItsEntry(t *testing.T) {
	r := conf.NewResources(conf.GB, 512*conf.MB, 2)
	c := NewCache(2)
	c.Insert("a", r, 1)
	c.Insert("b", r, 2)
	before := c.Stats()
	if _, ok := c.Outcome("a"); ok {
		t.Error("a fresh entry carries an outcome")
	}
	c.Attach("a", "run of a")
	c.Attach("nowhere", "lost")
	if o, ok := c.Outcome("a"); !ok || o != "run of a" {
		t.Errorf("outcome of a = %v, %v", o, ok)
	}
	if _, ok := c.Outcome("nowhere"); ok || c.Len() != 2 {
		t.Error("attaching created an entry")
	}
	if st := c.Stats(); st != before {
		t.Errorf("attach and read moved the counters %+v → %+v", before, st)
	}
	// a is still the least recently used entry: c evicts it, run and all.
	c.Insert("c", r, 3)
	if _, ok := c.Outcome("a"); ok {
		t.Error("an evicted entry kept its outcome")
	}
	c.Attach("b", "run of b")
	c.Insert("b", r, 2) // a new plan for the key: the old plan's run goes
	if _, ok := c.Outcome("b"); ok {
		t.Error("a re-inserted entry kept its outcome")
	}
	var nc *Cache
	nc.Attach("a", "run of a")
	if _, ok := nc.Outcome("a"); ok {
		t.Error("nil cache kept an outcome")
	}
}

// TestCacheHasTouchesNothing: Has answers whether a key has an entry and
// is no lookup — hit, miss and insert counters stay put and the LRU order
// does not move, so asking it off the goroutine that owns the cache cannot
// change what that goroutine's lookups and evictions do. A typed-nil cache
// has nothing.
func TestCacheHasTouchesNothing(t *testing.T) {
	r := conf.NewResources(conf.GB, 512*conf.MB, 2)
	c := NewCache(2)
	c.Insert("a", r, 1)
	c.Insert("b", r, 2)
	before := c.Stats()
	if !c.Has("b") || !c.Has("a") || c.Has("x") {
		t.Errorf("Has b/a/x = %v/%v/%v", c.Has("b"), c.Has("a"), c.Has("x"))
	}
	if st := c.Stats(); st != before {
		t.Errorf("Has moved the counters %+v → %+v", before, st)
	}
	// a is still the least recently used entry: a Has that refreshed it
	// (it was asked last) would make c evict b instead.
	c.Insert("c", r, 3)
	if c.Has("a") || !c.Has("b") {
		t.Errorf("Has refreshed recency: a kept %v, b kept %v", c.Has("a"), c.Has("b"))
	}
	var nc *Cache
	if nc.Has("a") || nc.Stats() != (CacheStats{}) {
		t.Error("nil cache has an entry")
	}
}

// TestCacheCloneIsolation: mutating a returned or inserted Resources value
// must not corrupt the cached copy.
func TestCacheCloneIsolation(t *testing.T) {
	c := NewCache(4)
	r := conf.NewResources(conf.GB, 512*conf.MB, 2)
	c.Insert("k", r, 1)
	r.MR[0] = 0 // caller mutates after insert

	got, _, ok := c.Lookup("k")
	if !ok {
		t.Fatal("missing")
	}
	if got.MR[0] != 512*conf.MB {
		t.Error("insert did not clone: caller mutation visible")
	}
	got.MR[1] = 0 // caller mutates the returned value
	again, _, _ := c.Lookup("k")
	if again.MR[1] != 512*conf.MB {
		t.Error("lookup did not clone: mutation of a returned value visible")
	}
}

// TestCacheNilAndDefaults: a nil cache is a valid no-op sink, and
// non-positive capacities select the default.
func TestCacheNilAndDefaults(t *testing.T) {
	var c *Cache
	if _, _, ok := c.Lookup("x"); ok {
		t.Error("nil cache hit")
	}
	c.Insert("x", conf.Resources{}, 1) // must not panic
	if c.Len() != 0 || c.Stats() != (CacheStats{}) {
		t.Error("nil cache not empty")
	}
	if got := NewCache(0).capacity; got != DefaultCacheEntries {
		t.Errorf("default capacity %d, want %d", got, DefaultCacheEntries)
	}
}

// TestShardedNilAndDefaults: the benchmark-only NewSharded is one cache
// holding capacity × shards entries, 16 stripes' worth when shards <= 0 and
// DefaultCacheEntries when the product is not positive; a nil one is inert
// behind the PlanCache name.
func TestShardedNilAndDefaults(t *testing.T) {
	var pc PlanCache
	pc.Insert("x", conf.Resources{}, 1)
	if _, _, ok := pc.Lookup("x"); ok || pc.Len() != 0 {
		t.Error("nil plan cache not inert")
	}
	for _, c := range []struct{ capacity, shards, want int }{
		{4, 2, 8}, {4, 0, 64}, {0, 0, DefaultCacheEntries}, {-1, 4, DefaultCacheEntries},
	} {
		if got := NewSharded(c.capacity, c.shards).capacity; got != c.want {
			t.Errorf("NewSharded(%d, %d) holds %d, want %d", c.capacity, c.shards, got, c.want)
		}
	}
}

// TestCacheConcurrency: parallel lookups, inserts, evictions and Has calls
// — the one access the daemon's sessions make beside the loop — must be
// race-free (run under -race), keep the counters consistent and hold the
// capacity as the bound on live entries.
func TestCacheConcurrency(t *testing.T) {
	const workers, opsPer, keys, capacity = 8, 500, 300, 4
	c := NewCache(capacity) // tiny capacity forces concurrent eviction
	r := conf.NewResources(conf.GB, 512*conf.MB, 1)
	var has atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("key-%d", rng.Intn(keys))
				switch rng.Intn(3) {
				case 0:
					c.Insert(k, r, float64(i))
				case 1:
					c.Lookup(k)
				default:
					c.Has(k)
					has.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Insertions+has.Load() != workers*opsPer {
		t.Errorf("ops unaccounted: hits %d + misses %d + inserts %d + has %d != %d",
			st.Hits, st.Misses, st.Insertions, has.Load(), workers*opsPer)
	}
	if st.Entries != c.Len() {
		t.Errorf("stats entries %d != Len %d", st.Entries, c.Len())
	}
	if st.Entries > capacity {
		t.Errorf("entries %d exceed the bound %d", st.Entries, capacity)
	}
	// Re-inserting a live key refreshes in place, so insertions can exceed
	// evictions+entries — but never the other way around.
	if st.Insertions < st.Evictions+int64(st.Entries) {
		t.Errorf("insertions %d < evictions %d + entries %d", st.Insertions, st.Evictions, st.Entries)
	}
}

// TestCacheHitEqualsCold: composed as the workload service composes it —
// a lookup, a search on a miss, an insert — a cache hit returns exactly the
// cold optimization outcome for a real program.
func TestCacheHitEqualsCold(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	o := New(conf.DefaultCluster())
	o.Opts.Points = 5

	cache := NewCache(4)
	const key = "some-key"
	if _, _, hit := cache.Lookup(key); hit {
		t.Fatal("empty cache hit")
	}
	cold := o.Optimize(hp)
	cache.Insert(key, cold.Res, cold.Cost)
	res, c, hit := cache.Lookup(key)
	if !hit {
		t.Fatal("lookup after insert must hit")
	}
	sameResult(t, "cache hit", &Result{Res: res, Cost: c}, cold)
}
