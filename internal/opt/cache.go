package opt

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"

	"elasticml/internal/conf"
)

// The shared plan cache memoizes optimization outcomes across tenants of a
// multi-program workload: repeated submissions of the same script over the
// same inputs under the same cluster view skip the grid search entirely.
//
// Correctness contract: a cache hit must be indistinguishable from a fresh
// compile-and-optimize. The cache therefore stores only the *outcome* of
// the search — the resource vector R*_P and its costed estimate — never
// compiled plan structures (a run advances the compiler's ID counter and
// writes into the file system the program was compiled over, so sharing
// them across tenants would leak state). Callers recompile from source and
// re-select the plan under the cached vector, which is byte-identical to
// the cold path by construction — or, where running the plan is itself a
// pure function of what the key covers, keep the result of having done so
// on the entry (Outcome / Attach). The cache key must capture every input
// the grid search depends on (CacheKey below), so a stale or mismatched
// entry is impossible as long as keys are built from the same components.

// InputMeta identifies one input matrix of a program for cache keying:
// its dimensions and sparsity are compile-time metadata that change memory
// estimates and therefore optimization outcomes.
type InputMeta struct {
	Path       string
	Rows, Cols int64
	NNZ        int64
	Format     string
}

// keyHasher bundles a reusable SHA-256 state with a staging buffer and the
// sort scratch CacheKey needs. Admission derives a key per lookup, so the
// hasher, buffer, and scratch slices are pooled; fields are staged into buf
// and written to the hash in one batch instead of one Fprintf per field.
type keyHasher struct {
	h     hash.Hash
	buf   []byte
	sum   [sha256.Size]byte
	names []string
	metas []InputMeta
}

var keyHasherPool = sync.Pool{
	New: func() interface{} {
		return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 1024)}
	},
}

// The field encoders are collision-free by construction: every variable-
// length payload is length-prefixed (uvarint), every field carries a
// one-byte type tag, and numeric payloads are fixed-width or varint-coded.
// No choice of adversarial bytes in one field can shift the boundary of
// another, unlike the old newline/colon-delimited %v encoding.

func (k *keyHasher) tag(t byte) { k.buf = append(k.buf, t) }

func (k *keyHasher) str(s string) {
	k.buf = binary.AppendUvarint(k.buf, uint64(len(s)))
	k.buf = append(k.buf, s...)
}

func (k *keyHasher) i64(v int64) { k.buf = appendI64(k.buf, v) }

func (k *keyHasher) f64(v float64) { k.buf = appendF64(k.buf, v) }

func (k *keyHasher) boolByte(v bool) { k.buf = appendBool(k.buf, v) }

func appendI64(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// param encodes one parameter binding with a type tag, so a string "1"
// and an int 1 hash differently.
func (k *keyHasher) param(name string, v interface{}) {
	k.tag('p')
	k.str(name)
	switch x := v.(type) {
	case string:
		k.tag('s')
		k.str(x)
	case int:
		k.tag('i')
		k.i64(int64(x))
	case int64:
		k.tag('i')
		k.i64(x)
	case float64:
		k.tag('f')
		k.f64(x)
	case bool:
		k.tag('b')
		k.boolByte(x)
	default:
		// Fallback for exotic types: tag with the dynamic Go type name so
		// different types with the same formatting cannot collide.
		k.tag('v')
		k.str(fmt.Sprintf("%T", v))
		k.str(fmt.Sprintf("%v", v))
	}
}

// AppendOptionsKey appends the encoding of the options a search's result
// depends on, the one the plan-cache key covers: two options with equal
// encodings make every search return the same result. Workers is
// deliberately excluded (TestCacheKeyCoversFields holds the
// classification): the task-parallel optimizer returns the same result as
// the sequential one.
func AppendOptionsKey(dst []byte, opts Options) []byte {
	dst = append(dst, 'O')
	dst = appendI64(dst, int64(opts.Grid))
	dst = appendI64(dst, int64(opts.Points))
	dst = appendBool(dst, opts.DisablePruning)
	dst = appendI64(dst, int64(len(opts.CPCoreCandidates)))
	for _, c := range opts.CPCoreCandidates {
		dst = appendI64(dst, int64(c))
	}
	return appendF64(dst, opts.ClusterLoad)
}

// problem encodes the cluster-independent half of the key: source,
// parameter bindings (sorted), and input metadata (sorted by path).
func (k *keyHasher) problem(source string, params map[string]interface{}, inputs []InputMeta) {
	k.tag('S')
	k.str(source)

	k.names = k.names[:0]
	for name := range params {
		k.names = append(k.names, name)
	}
	sort.Strings(k.names)
	for _, name := range k.names {
		k.param(name, params[name])
	}

	k.metas = append(k.metas[:0], inputs...)
	sort.Slice(k.metas, func(i, j int) bool { return k.metas[i].Path < k.metas[j].Path })
	for _, m := range k.metas {
		k.tag('I')
		k.str(m.Path)
		k.i64(m.Rows)
		k.i64(m.Cols)
		k.i64(m.NNZ)
		k.str(m.Format)
	}
}

// cluster encodes every cluster dimension the grid search depends on.
func (k *keyHasher) cluster(cc conf.Cluster) {
	k.tag('C')
	k.i64(int64(cc.Nodes))
	k.i64(int64(cc.CoresPerNode))
	k.i64(int64(cc.MemPerNode))
	k.i64(int64(cc.MinAlloc))
	k.i64(int64(cc.MaxAlloc))
	k.i64(int64(cc.HDFSBlockSize))
	k.i64(int64(cc.Reducers))
	k.f64(cc.ContainerOverhead)
	k.f64(cc.CPBudgetRatio)
}

// finish hashes the staged buffer in one write and returns the hex digest.
func (k *keyHasher) finish() string {
	k.h.Reset()
	k.h.Write(k.buf)
	k.h.Sum(k.sum[:0])
	return hex.EncodeToString(k.sum[:])
}

// CacheKey derives the plan-cache key for one optimization problem: the
// script source, its parameter bindings, the input matrix metadata, the
// cluster configuration (a node failure or a free-slice clamp changes the
// key, invalidating entries computed for the old cluster state), and the
// result-relevant optimizer options. Every field is length-prefixed and
// type-tagged (see keyHasher), so adversarial values — a string "1" vs an
// int 1, delimiter bytes inside params or paths — cannot collide.
func CacheKey(source string, params map[string]interface{}, inputs []InputMeta, cc conf.Cluster, opts Options) string {
	k := keyHasherPool.Get().(*keyHasher)
	k.buf = k.buf[:0]
	k.problem(source, params, inputs)
	k.cluster(cc)
	k.buf = AppendOptionsKey(k.buf, opts)
	key := k.finish()
	keyHasherPool.Put(k)
	return key
}

// CacheStats reports cache effectiveness.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Insertions int64 `json:"insertions"`
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
}

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheItem is one LRU entry.
type cacheItem struct {
	key     string
	res     conf.Resources
	cost    float64
	outcome interface{}
}

// Cache is a bounded LRU plan cache, safe for concurrent use. Entries are
// isolated: lookups return deep copies, so callers can mutate the returned
// resource vector without corrupting later hits. All methods are
// nil-receiver safe: a nil *Cache is a no-op sink, which is how the
// workload service represents "caching disabled".
type Cache struct {
	mu       sync.Mutex
	capacity int
	index    map[string]*list.Element
	lru      list.List // front = most recently used
	stats    CacheStats
}

// DefaultCacheEntries is the default cache capacity.
const DefaultCacheEntries = 1024

// NewCache returns a cache holding at most capacity entries (capacity <= 0
// selects DefaultCacheEntries).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{capacity: capacity, index: make(map[string]*list.Element)}
}

// Lookup returns the cached optimization outcome for the key, counting a
// hit or miss and refreshing recency on hit.
func (c *Cache) Lookup(key string) (conf.Resources, float64, bool) {
	if c == nil {
		return conf.Resources{}, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return conf.Resources{}, 0, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	it := el.Value.(*cacheItem)
	return it.res.Clone(), it.cost, true
}

// Has reports whether the key has an entry. It is no lookup: counters and
// recency stay untouched, so a caller off the goroutine that owns the
// cache's order may ask it.
func (c *Cache) Has(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// Insert stores (or refreshes) the outcome for the key, evicting the least
// recently used entry when over capacity.
func (c *Cache) Insert(key string, res conf.Resources, cost float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Insertions++
	if el, ok := c.index[key]; ok {
		it := el.Value.(*cacheItem)
		it.res = res.Clone()
		it.cost = cost
		it.outcome = nil
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&cacheItem{key: key, res: res.Clone(), cost: cost})
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		delete(c.index, back.Value.(*cacheItem).key)
		c.lru.Remove(back)
		c.stats.Evictions++
	}
}

// Outcome returns what Attach last set on the key's entry: an opaque value
// derived from the entry's configuration (the workload service keeps the
// plan's simulated run there). Outcome and Attach are no lookups —
// counters and recency stay untouched — and Insert on the key or eviction
// drops the value with the entry, so one LRU governs both.
func (c *Cache) Outcome(key string) (interface{}, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		o := el.Value.(*cacheItem).outcome
		return o, o != nil
	}
	return nil, false
}

// Attach sets the outcome on the key's entry; without an entry it is a
// no-op.
func (c *Cache) Attach(key string, outcome interface{}) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		el.Value.(*cacheItem).outcome = outcome
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}
