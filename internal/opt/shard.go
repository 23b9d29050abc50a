package opt

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
