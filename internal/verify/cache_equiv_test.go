package verify

import (
	"fmt"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
)

// cacheEquivClusters are the cluster views the property is checked under:
// the full default cluster, a shrunken post-failure view, and a clamped
// free-slice view — the three shapes the workload service optimizes under.
func cacheEquivClusters() map[string]conf.Cluster {
	full := conf.DefaultCluster()
	shrunk := full
	shrunk.Nodes = 3
	clamped := full
	clamped.MaxAlloc = 4 * conf.GB
	return map[string]conf.Cluster{"full": full, "shrunk": shrunk, "clamped": clamped}
}

// compileCorpus compiles one corpus program on a fresh staged file system
// and returns the program plus its cache-key ingredients.
func compileCorpus(t *testing.T, p Program) (*hop.Program, []opt.InputMeta) {
	t.Helper()
	fs := hdfs.New()
	if p.Setup != nil {
		p.Setup(fs)
	}
	prog, err := dml.Parse(p.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", p.Name, err)
	}
	comp := hop.NewCompiler(fs, p.Params)
	hp, err := comp.Compile(prog, p.Source)
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name, err)
	}
	var inputs []opt.InputMeta
	for _, name := range fs.List() {
		f, err := fs.Stat(name)
		if err != nil {
			continue
		}
		inputs = append(inputs, opt.InputMeta{
			Path: name, Rows: f.Rows, Cols: f.Cols, NNZ: f.NNZ, Format: f.Format.String(),
		})
	}
	return hp, inputs
}

// optimizeCached resolves one problem through the cache the way the
// workload service does: a lookup, and on a miss a full search whose
// outcome is inserted.
func optimizeCached(o *opt.Optimizer, hp *hop.Program, cache *opt.Cache, key string) (*opt.Result, bool) {
	if res, cost, ok := cache.Lookup(key); ok {
		return &opt.Result{Res: res, Cost: cost}, true
	}
	r := o.Optimize(hp)
	cache.Insert(key, r.Res, r.Cost)
	return r, false
}

// TestPlanCacheHitEquivalence is the shared-plan-cache soundness property:
// for every corpus program under every cluster view, optimizing via a
// cache hit and then recompiling yields a plan whose EXPLAIN text, chosen
// configuration, and costed estimate are byte-identical to a cold
// compile-and-search. The cache stores only optimization outcomes, so this
// holds by construction — the test pins it against regressions.
func TestPlanCacheHitEquivalence(t *testing.T) {
	opts := opt.DefaultOptions()
	opts.Points = 5 // smaller grid: the property is resolution-independent

	for ccName, cc := range cacheEquivClusters() {
		for _, p := range Corpus() {
			t.Run(fmt.Sprintf("%s/%s", ccName, p.Name), func(t *testing.T) {
				// Cold: fresh compile, full grid search.
				hpCold, inputs := compileCorpus(t, p)
				o := &opt.Optimizer{CC: cc, Opts: opts}
				cold := o.Optimize(hpCold)
				coldExplain := lop.Explain(lop.Select(hpCold, cc, cold.Res))

				// Warm the cache with a separately compiled instance, as a
				// different tenant of the same program would.
				cache := opt.NewCache(8)
				key := opt.CacheKey(p.Source, p.Params, inputs, cc, opts)
				hpWarm, inputsWarm := compileCorpus(t, p)
				if keyWarm := opt.CacheKey(p.Source, p.Params, inputsWarm, cc, opts); keyWarm != key {
					t.Fatalf("identical submissions produced different cache keys")
				}
				if _, hit := optimizeCached(o, hpWarm, cache, key); hit {
					t.Fatal("empty cache reported a hit")
				}

				// Hit: a third compile, optimization answered from cache.
				hpHit, _ := compileCorpus(t, p)
				hitRes, hit := optimizeCached(o, hpHit, cache, key)
				if !hit {
					t.Fatal("warmed cache missed")
				}
				if hitRes.Cost != cold.Cost {
					t.Errorf("hit cost %v != cold cost %v", hitRes.Cost, cold.Cost)
				}
				if hitRes.Res.String() != cold.Res.String() {
					t.Errorf("hit config %v != cold config %v", hitRes.Res, cold.Res)
				}
				hitExplain := lop.Explain(lop.Select(hpHit, cc, hitRes.Res))
				if hitExplain != coldExplain {
					t.Errorf("EXPLAIN diverged between cache hit and cold compile:\n--- hit ---\n%s\n--- cold ---\n%s",
						hitExplain, coldExplain)
				}
			})
		}
	}
}

// TestPlanCacheEvictionNeverChangesResults: evicting an entry only costs
// a re-search; the re-computed outcome and plan are identical to the
// evicted one.
func TestPlanCacheEvictionNeverChangesResults(t *testing.T) {
	cc := conf.DefaultCluster()
	opts := opt.DefaultOptions()
	opts.Points = 5
	o := &opt.Optimizer{CC: cc, Opts: opts}
	cache := opt.NewCache(1) // every second distinct key evicts the first

	p := Corpus()[0]
	hp1, inputs := compileCorpus(t, p)
	key := opt.CacheKey(p.Source, p.Params, inputs, cc, opts)
	first, hit := optimizeCached(o, hp1, cache, key)
	if hit {
		t.Fatal("first call hit an empty cache")
	}
	firstExplain := lop.Explain(lop.Select(hp1, cc, first.Res))

	// Displace the entry with a different program's outcome.
	q := Corpus()[1]
	hpQ, inputsQ := compileCorpus(t, q)
	keyQ := opt.CacheKey(q.Source, q.Params, inputsQ, cc, opts)
	if keyQ == key {
		t.Fatal("distinct programs share a cache key")
	}
	if _, hit := optimizeCached(o, hpQ, cache, keyQ); hit {
		t.Fatal("unexpected hit for second program")
	}
	if st := cache.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("want 1 eviction / 1 entry, got %+v", st)
	}

	// Re-derive the evicted outcome: must equal the original exactly.
	hp2, _ := compileCorpus(t, p)
	second, hit := optimizeCached(o, hp2, cache, key)
	if hit {
		t.Fatal("evicted key still hit")
	}
	if second.Cost != first.Cost || second.Res.String() != first.Res.String() {
		t.Errorf("re-search after eviction diverged: %v/%v vs %v/%v",
			second.Res, second.Cost, first.Res, first.Cost)
	}
	if again := lop.Explain(lop.Select(hp2, cc, second.Res)); again != firstExplain {
		t.Error("EXPLAIN diverged after eviction and re-search")
	}
}
