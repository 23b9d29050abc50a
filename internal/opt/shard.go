package opt

import "elasticml/internal/conf"

// ShardedCache is a lock-striped plan cache: N independent single-lock LRU
// shards, selected by the first byte of the SHA-256 digest underlying the
// key. Concurrent tenants hitting different shards never contend on a
// mutex, which is what the single global lock in Cache serializes.
//
// Semantics relative to Cache: hit/miss/insert accounting is identical
// (Stats aggregates the per-shard counters), and so is eviction as long as
// the live working set fits one shard's capacity. Each shard holds up to
// the full configured capacity, so the sharded cache admits *at most*
// shards x capacity entries — a deliberately looser global bound chosen so
// that any workload the single-lock cache serves without evicting produces
// byte-identical stats under sharding (a per-shard capacity/N split would
// evict earlier on skewed shards and diverge).
type ShardedCache struct {
	shards []*Cache
}

// DefaultCacheShards is the default stripe count.
const DefaultCacheShards = 16

// NewSharded returns a sharded cache with the given per-shard capacity
// (capacity <= 0 selects DefaultCacheEntries) and shard count (shards <= 0
// selects DefaultCacheShards; 1 degenerates to a single-lock cache behind
// the same interface).
func NewSharded(capacity, shards int) *ShardedCache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	c := &ShardedCache{shards: make([]*Cache, shards)}
	for i := range c.shards {
		c.shards[i] = NewCache(capacity)
	}
	return c
}

// shardFor selects the stripe for a key. CacheKey returns lowercase hex, so
// the digest's first byte is recovered from the first two characters; using
// the raw first character would map hex digits mod N and leave shards 10-15
// permanently empty at the default stripe count. Non-hex keys (tests,
// external callers) fall back to the raw first byte.
func (c *ShardedCache) shardFor(key string) *Cache {
	b := 0
	if len(key) >= 2 {
		hi := unhex(key[0])
		lo := unhex(key[1])
		if hi >= 0 && lo >= 0 {
			b = hi<<4 | lo
		} else {
			b = int(key[0])
		}
	} else if len(key) == 1 {
		b = int(key[0])
	}
	return c.shards[b%len(c.shards)]
}

func unhex(ch byte) int {
	switch {
	case '0' <= ch && ch <= '9':
		return int(ch - '0')
	case 'a' <= ch && ch <= 'f':
		return int(ch-'a') + 10
	case 'A' <= ch && ch <= 'F':
		return int(ch-'A') + 10
	}
	return -1
}

// Lookup returns the cached outcome for the key from its shard.
func (c *ShardedCache) Lookup(key string) (conf.Resources, float64, bool) {
	if c == nil {
		return conf.Resources{}, 0, false
	}
	return c.shardFor(key).Lookup(key)
}

// Has reports whether the key's shard has an entry for it.
func (c *ShardedCache) Has(key string) bool {
	if c == nil {
		return false
	}
	return c.shardFor(key).Has(key)
}

// Insert stores (or refreshes) the outcome for the key in its shard.
func (c *ShardedCache) Insert(key string, res conf.Resources, cost float64) {
	if c == nil {
		return
	}
	c.shardFor(key).Insert(key, res, cost)
}

// Outcome returns what Attach last set on the key's entry in its shard.
func (c *ShardedCache) Outcome(key string) (interface{}, bool) {
	if c == nil {
		return nil, false
	}
	return c.shardFor(key).Outcome(key)
}

// Attach sets the outcome on the key's entry in its shard.
func (c *ShardedCache) Attach(key string, outcome interface{}) {
	if c == nil {
		return
	}
	c.shardFor(key).Attach(key, outcome)
}

// Len returns the number of live entries across all shards.
func (c *ShardedCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}

// Stats aggregates the per-shard counters into one snapshot.
func (c *ShardedCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var agg CacheStats
	for _, s := range c.shards {
		st := s.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Insertions += st.Insertions
		agg.Evictions += st.Evictions
		agg.Entries += st.Entries
	}
	return agg
}

// Shards returns the stripe count (for reports and tests).
func (c *ShardedCache) Shards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}
