package opt

import "elasticml/internal/hop"

// NewSharded returns one cache holding capacity × shards entries (shards
// <= 0 means 16; a product <= 0 selects DefaultCacheEntries), so the
// benchmark's callers keep their capacity. It is kept only so they
// compile unchanged.
func NewSharded(capacity, shards int) *Cache {
	if shards <= 0 {
		shards = 16
	}
	return NewCache(capacity * shards)
}

// PlanCache names the plan cache. It is kept only so the benchmark's
// callers compile unchanged.
type PlanCache = *Cache

// Memo names the re-costing memo searches of one program once shared. A
// search now reuses work only within itself (its selection table and
// cost cells), so a Memo holds nothing. It is kept only so the
// benchmark's callers compile unchanged.
type Memo struct{}

// NewMemo returns an empty memo. It is kept only so the benchmark's
// callers compile unchanged.
func NewMemo() *Memo { return new(Memo) }

// MemoStats is what Memo.Stats returns. It is kept only so the benchmark's
// callers compile unchanged.
type MemoStats struct {
	Entries      int
	Hits, Misses int64
}

// Stats returns zero counts. It is kept only so the benchmark's callers
// compile unchanged.
func (*Memo) Stats() MemoStats { return MemoStats{} }

// MemoStore names the store of memos, one per program. It is kept only so
// the benchmark's callers compile unchanged.
type MemoStore struct{}

// NewMemoStore returns an empty store; capacity is ignored. It is kept
// only so the benchmark's callers compile unchanged.
func NewMemoStore(capacity int) *MemoStore { return new(MemoStore) }

// Get returns an empty memo. It is kept only so the benchmark's callers
// compile unchanged.
func (*MemoStore) Get(key string) *Memo { return new(Memo) }

// MemoKey returns the empty key. It is kept only so the benchmark's
// callers compile unchanged.
func MemoKey(source string, params map[string]interface{}, inputs []InputMeta, opts Options) string {
	return ""
}

// OptimizeMemo is Optimize; the memo is ignored. It is kept only so the
// benchmark's callers compile unchanged.
func (o *Optimizer) OptimizeMemo(hp *hop.Program, m *Memo) *Result { return o.Optimize(hp) }
