package opt

import (
	"container/list"
	"strconv"
	"sync"

	"elasticml/internal/conf"
)

// The re-costing memo makes §5 re-optimization incremental. A cluster
// change (departure clamp, node failure, restore) shifts only some of the
// dimensions the grid search's cost evaluations depend on; the evaluations
// themselves are highly redundant across neighboring cluster states. The
// memo records every (cores, CP heap, MR heap, block) cost from a search
// together with the cluster it was computed under, and a later search under
// a different cluster reuses an entry iff the changed dimensions provably
// cannot have altered it:
//
//   - Plan selection (lop.Select/SelectBlock) reads only CPBudgetRatio (via
//     OpBudget) and the resource vector, so equal CPBudgetRatio means the
//     memoized cost priced the same plan shape.
//   - A CP-only block's cost additionally depends on CoresPerNode (the
//     compute clamp) and on nothing else in the cluster.
//   - A block with MR jobs further depends on Nodes, MemPerNode, Reducers,
//     HDFSBlockSize, ContainerOverhead, and on Min/MaxAlloc only through
//     ContainerSize clamping of the two heaps involved — so a MaxAlloc
//     clamp (degraded admission) invalidates nothing for heaps whose
//     container size is unchanged under both clusters.
//
// Whole-program costings under MR-bearing vectors depend on the container
// size of every block's heap, so those entries are reused only under an
// identical cluster and recomputed (one compile + costing per grid point)
// otherwise. Entries never expire by cluster change — they accumulate per
// observed cluster state and are bounded by a flush-on-overflow cap.

// memoBlockKey identifies one block-level cost evaluation. baseline marks
// the minimal-MR-heap evaluation performed during baseline compilation
// (which also carries the pruning verdict).
type memoBlockKey struct {
	cores    int
	rc, ri   conf.Bytes
	block    int
	baseline bool
}

// memoBlockVal is one memoized block cost. mr records whether the compiled
// block contained MR instructions (selecting the validity rule); pruned, on
// baseline entries, records that enumeration was skipped for the block.
type memoBlockVal struct {
	cost   float64
	mr     bool
	pruned bool
	cc     uint16 // index into Memo.ccs
}

// memoProgKey identifies one whole-program costing: CP point, cores, and
// the full MR vector (encoded as a string so the key is comparable).
type memoProgKey struct {
	cores int
	rc    conf.Bytes
	vec   string
}

type memoProgVal struct {
	cost float64
	mr   bool
	cc   uint16
}

// Flush-on-overflow bounds: a memo caps its entry and cluster-state tables
// and starts over when either fills. The caps are far above what the
// service's grids produce per program; flushing costs only speed.
const (
	maxMemoBlocks = 1 << 16
	maxMemoCCs    = 256
)

// Memo is the re-costing memo for one optimization problem (one program +
// options fingerprint across cluster states). Safe for concurrent use: the
// per-entry lock is vastly cheaper than the block compilation it saves, and
// because every memoized value is a pure function of its key and cluster,
// concurrent searches sharing a memo stay deterministic — a race only
// decides who computes a value, never what it is.
type Memo struct {
	mu     sync.Mutex
	ccs    []conf.Cluster
	blocks map[memoBlockKey]memoBlockVal
	progs  map[memoProgKey]memoProgVal

	hits, misses int64
}

// NewMemo returns an empty re-costing memo.
func NewMemo() *Memo {
	return &Memo{
		blocks: make(map[memoBlockKey]memoBlockVal),
		progs:  make(map[memoProgKey]memoProgVal),
	}
}

// MemoStats reports memo effectiveness.
type MemoStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// Stats returns a snapshot of the memo counters.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Entries: len(m.blocks) + len(m.progs), Hits: m.hits, Misses: m.misses}
}

// ccIndex interns a cluster state, flushing the memo if the state table is
// full (flushing preserves determinism: it only forgets reusable work).
func (m *Memo) ccIndex(cc conf.Cluster) uint16 {
	for i := range m.ccs {
		if m.ccs[i] == cc {
			return uint16(i)
		}
	}
	if len(m.ccs) >= maxMemoCCs {
		m.ccs = m.ccs[:0]
		clear(m.blocks)
		clear(m.progs)
	}
	m.ccs = append(m.ccs, cc)
	return uint16(len(m.ccs) - 1)
}

// compatible reports whether an entry computed under old is reusable under
// cur, given whether the priced plan had MR jobs and which heaps it binds.
func compatible(old, cur conf.Cluster, mr bool, heaps ...conf.Bytes) bool {
	if old == cur {
		return true
	}
	if old.CPBudgetRatio != cur.CPBudgetRatio || old.CoresPerNode != cur.CoresPerNode {
		return false
	}
	if !mr {
		return true
	}
	if old.Nodes != cur.Nodes || old.MemPerNode != cur.MemPerNode ||
		old.Reducers != cur.Reducers || old.HDFSBlockSize != cur.HDFSBlockSize ||
		old.ContainerOverhead != cur.ContainerOverhead {
		return false
	}
	// Min/MaxAlloc enter MR costs only through ContainerSize clamping of
	// the bound heaps: equal clamped sizes under both clusters means the
	// allocation-range change was value-neutral for this entry.
	for _, h := range heaps {
		if old.ContainerSize(h) != cur.ContainerSize(h) {
			return false
		}
	}
	return true
}

// memoView binds a Memo to the cluster a search runs under, caching the
// interned cluster index. A nil view is inert: lookups miss, records are
// dropped — the optimizer threads it unconditionally.
type memoView struct {
	m    *Memo
	cc   conf.Cluster
	ccID uint16
}

func newMemoView(m *Memo, cc conf.Cluster) *memoView {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	id := m.ccIndex(cc)
	m.mu.Unlock()
	return &memoView{m: m, cc: cc, ccID: id}
}

// block looks up a valid block cost, a baseline or an enumeration entry.
func (v *memoView) block(k memoBlockKey) (memoBlockVal, bool) {
	if v == nil {
		return memoBlockVal{}, false
	}
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	e, ok := v.m.blocks[k]
	if ok && compatible(v.m.ccs[e.cc], v.cc, e.mr, k.rc, k.ri) {
		v.m.hits++
		return e, true
	}
	v.m.misses++
	return memoBlockVal{}, false
}

// recordBlock stores a block cost computed under the view's cluster.
func (v *memoView) recordBlock(k memoBlockKey, e memoBlockVal) {
	if v == nil {
		return
	}
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	v.m.flushIfFull()
	e.cc = v.ccID
	v.m.blocks[k] = e
}

// prog looks up a valid whole-program costing. MR-bearing programs depend
// on the container size of every heap in the vector, so they are
// conservatively reused only under an identical cluster.
func (v *memoView) prog(k memoProgKey) (memoProgVal, bool) {
	if v == nil {
		return memoProgVal{}, false
	}
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	e, ok := v.m.progs[k]
	if ok && (v.m.ccs[e.cc] == v.cc || (!e.mr && compatible(v.m.ccs[e.cc], v.cc, false))) {
		v.m.hits++
		return e, true
	}
	v.m.misses++
	return memoProgVal{}, false
}

// recordProg stores a whole-program costing computed under the view's
// cluster.
func (v *memoView) recordProg(k memoProgKey, e memoProgVal) {
	if v == nil {
		return
	}
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	v.m.flushIfFull()
	e.cc = v.ccID
	v.m.progs[k] = e
}

// flushIfFull empties the entry tables when the overflow cap is reached.
// Callers hold m.mu. The interned cluster states survive (indices stay
// valid for the views holding them).
func (m *Memo) flushIfFull() {
	if len(m.blocks)+len(m.progs) >= maxMemoBlocks {
		clear(m.blocks)
		clear(m.progs)
	}
}

// vecString encodes an MR heap vector as a comparable map key.
func vecString(mr []conf.Bytes) string {
	b := make([]byte, 0, 16*len(mr))
	for _, v := range mr {
		b = strconv.AppendInt(b, int64(v), 36)
		b = append(b, ',')
	}
	return string(b)
}

// DefaultMemoPrograms is the default MemoStore capacity.
const DefaultMemoPrograms = 32

// MemoStore is a bounded LRU of per-program memos, keyed by MemoKey. The
// workload service holds one store; each admission or re-optimization
// fetches (or creates) the memo for its program so successive searches
// under shifting cluster states reuse each other's cost tables.
type MemoStore struct {
	mu       sync.Mutex
	capacity int
	index    map[string]*list.Element
	lru      list.List
}

type memoStoreItem struct {
	key string
	m   *Memo
}

// NewMemoStore returns a store holding at most capacity memos (capacity <=
// 0 selects DefaultMemoPrograms).
func NewMemoStore(capacity int) *MemoStore {
	if capacity <= 0 {
		capacity = DefaultMemoPrograms
	}
	return &MemoStore{capacity: capacity, index: make(map[string]*list.Element)}
}

// Get returns the memo for the key, creating it on first use and evicting
// the least recently used memo when over capacity. A nil store returns nil
// (memoization disabled).
func (s *MemoStore) Get(key string) *Memo {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*memoStoreItem).m
	}
	m := NewMemo()
	s.index[key] = s.lru.PushFront(&memoStoreItem{key: key, m: m})
	for s.lru.Len() > s.capacity {
		back := s.lru.Back()
		delete(s.index, back.Value.(*memoStoreItem).key)
		s.lru.Remove(back)
	}
	return m
}

// Len returns the number of live memos.
func (s *MemoStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
