package cost

import (
	"elasticml/internal/conf"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
)

// Location is a live variable's physical placement.
type Location int

// Variable locations.
const (
	OnHDFS Location = iota
	InMemory
)

// KeyKind tells what a state key names.
type KeyKind uint8

// Key kinds.
const (
	KeyVar  KeyKind = iota // a live variable, by name
	KeyFile                // a persistent input file, by path
	KeyJob                 // an MR job's materialized output, by hop ID
)

// Key names one binding of the state: a variable or file by Name, a job
// output by the ID of the hop it materializes.
type Key struct {
	Kind KeyKind
	Name string
	ID   int64
}

// entry is one stored value: a variable, a cached input file or a job
// output. Names that Alias bound together hold the same entry.
type entry struct {
	loc   Location
	size  conf.Bytes
	dirty bool // in-memory state differs from HDFS representation
	stamp int64
	refs  int32 // bindings holding the entry; 0 marks a free slot
}

// binding ties a key to the index of its entry.
type binding struct {
	key   Key
	entry int32
}

// VarState models the buffer-pool view of live variables during plan
// scanning: which variables are pinned in CP memory, which reside on HDFS,
// and the IO cost of transitions (reads, exports, evictions).
type VarState struct {
	// binds is searched linearly: a costing's state holds one block's or
	// one program's few dozen names, and a lookup builds no key string.
	// Bindings are never removed; an entry no name holds frees its slot.
	binds   []binding
	entries []entry
	// budget is the CP buffer-pool capacity; <= 0 disables capacity
	// enforcement (the optimizer's cost model only partially considers
	// evictions; the execution simulator enforces them).
	budget conf.Bytes
	// span, when a costing records its cell, is narrowed by every test
	// of the budget to the budgets that resolve the test the same way.
	// Clones share it: both branches of an if block narrow the one cell.
	span    *lop.Span
	inMem   conf.Bytes
	clock   int64
	evictIO conf.Bytes // accumulated eviction write/re-read bytes

	// Evictions counts buffer-pool victims pushed out over capacity;
	// Restores counts HDFS-to-memory loads (first reads and re-reads of
	// evicted variables). Both feed the observability counters.
	Evictions int
	Restores  int

	// Peak is the high-water mark of in-memory resident bytes, recorded
	// after every admission (post-eviction steady state). The estimate
	// auditor compares it against the configured budget.
	Peak conf.Bytes
	// MaxVar is the largest single admitted variable size — the pinning
	// bound: a variable bigger than the whole budget stays resident, so
	// Peak <= max(budget, MaxVar) is the pool's capacity invariant.
	MaxVar conf.Bytes
}

// NewVarState returns a state tracker; budget <= 0 disables eviction
// modelling.
func NewVarState(budget conf.Bytes) *VarState {
	return &VarState{budget: budget}
}

// Clone copies the state (used to evaluate conditional branches
// independently). Names that Alias bound to one entry hold the same entry
// index, so they stay bound to one entry in the copy. The copy keeps the
// original's capacity: a costing continues from a branch's state.
func (s *VarState) Clone() *VarState {
	c := *s
	c.binds = append(make([]binding, 0, cap(s.binds)), s.binds...)
	c.entries = append(make([]entry, 0, cap(s.entries)), s.entries...)
	return &c
}

func (s *VarState) touch(v *entry) {
	s.clock++
	v.stamp = s.clock
}

// keyOf returns the state key of a hop's referenced storage: variable name
// for treads/twrites, file path for persistent reads.
func keyOf(h *hop.Hop) (Key, bool) {
	switch h.Kind {
	case hop.KindTRead, hop.KindTWrite:
		return Key{Kind: KeyVar, Name: h.Name}, true
	case hop.KindRead:
		return Key{Kind: KeyFile, Name: h.Name}, true
	}
	return Key{}, false
}

// find returns the index of k's binding, or -1.
func (s *VarState) find(k Key) int {
	for i := range s.binds {
		if s.binds[i].key == k {
			return i
		}
	}
	return -1
}

// entryOf returns the index of the entry bound to k, or -1.
func (s *VarState) entryOf(k Key) int32 {
	if b := s.find(k); b >= 0 {
		return s.binds[b].entry
	}
	return -1
}

// newEntry stores a value held by one binding in a slot no name holds any
// more, or in a new one, so that long simulations do not grow the table.
func (s *VarState) newEntry(loc Location, size conf.Bytes) int32 {
	e := entry{loc: loc, size: size, refs: 1}
	for i := range s.entries {
		if s.entries[i].refs == 0 {
			s.entries[i] = e
			return int32(i)
		}
	}
	s.entries = append(s.entries, e)
	return int32(len(s.entries) - 1)
}

// bind registers an unbound key with a fresh entry and returns the entry.
func (s *VarState) bind(k Key, loc Location, size conf.Bytes) int32 {
	i := s.newEntry(loc, size)
	s.binds = append(s.binds, binding{key: k, entry: i})
	return i
}

// EnsureInMemory charges the IO needed to make the variable CP-resident and
// returns the read bytes (0 if already cached). Unknown variables are
// registered as HDFS-resident with the given size first.
func (s *VarState) EnsureInMemory(k Key, size conf.Bytes) conf.Bytes {
	i := s.entryOf(k)
	if i < 0 {
		i = s.bind(k, OnHDFS, size)
	}
	v := &s.entries[i]
	s.touch(v)
	if v.loc == InMemory {
		return 0
	}
	v.loc = InMemory
	v.dirty = false
	s.Restores++
	s.admit(i)
	return v.size
}

// PutInMemory registers a CP-produced value (dirty: HDFS has no copy).
func (s *VarState) PutInMemory(k Key, size conf.Bytes) {
	i := s.entryOf(k)
	if i < 0 {
		i = s.bind(k, OnHDFS, 0)
	} else if s.entries[i].loc == InMemory {
		s.inMem -= s.entries[i].size
	}
	v := &s.entries[i]
	v.loc = InMemory
	v.size = size
	v.dirty = true
	s.touch(v)
	s.admit(i)
}

// PutOnHDFS registers an MR-produced value (resident on HDFS only). Only
// the named binding gets the fresh entry: an alias keeps the old one.
func (s *VarState) PutOnHDFS(k Key, size conf.Bytes) {
	b := s.find(k)
	if b < 0 {
		s.bind(k, OnHDFS, size)
		return
	}
	old := &s.entries[s.binds[b].entry]
	if old.loc == InMemory {
		s.inMem -= old.size
	}
	if old.refs == 1 {
		*old = entry{loc: OnHDFS, size: size, refs: 1}
		return
	}
	old.refs--
	s.binds[b].entry = s.newEntry(OnHDFS, size)
}

// Alias binds dst to the same storage as src — a variable assignment
// without data movement (x = y, or x = read(f) binding the file). The two
// names share location, size and dirtiness from here on. Unknown sources
// register dst as HDFS-resident with the fallback size.
func (s *VarState) Alias(dst, src Key, fallback conf.Bytes) {
	v := s.entryOf(src)
	if v < 0 {
		s.PutOnHDFS(dst, fallback)
		return
	}
	b := s.find(dst)
	if b < 0 {
		s.binds = append(s.binds, binding{key: dst, entry: v})
	} else {
		if s.binds[b].entry == v {
			return
		}
		old := &s.entries[s.binds[b].entry]
		if old.loc == InMemory {
			s.inMem -= old.size
		}
		old.refs--
		s.binds[b].entry = v
	}
	s.entries[v].refs++
}

// ExportBytes returns the bytes that must be written to HDFS before an MR
// job can scan the variable (dirty in-memory state), marking it clean.
func (s *VarState) ExportBytes(k Key, size conf.Bytes) conf.Bytes {
	i := s.entryOf(k)
	if i < 0 {
		s.bind(k, OnHDFS, size)
		return 0
	}
	if v := &s.entries[i]; v.loc == InMemory && v.dirty {
		v.dirty = false
		return v.size
	}
	return 0
}

// Size returns the tracked size of a variable (fallback if untracked).
func (s *VarState) Size(k Key, fallback conf.Bytes) conf.Bytes {
	if i := s.entryOf(k); i >= 0 && s.entries[i].size > 0 {
		return s.entries[i].size
	}
	return fallback
}

// InMemory reports whether the variable is currently CP-resident.
func (s *VarState) InMemory(k Key) bool {
	i := s.entryOf(k)
	return i >= 0 && s.entries[i].loc == InMemory
}

// admit inserts entry i into the buffer pool, evicting least-recently-used
// bound entries beyond the capacity and accumulating their IO in evictIO
// (dirty pages are written; clean pages only drop). Resident entries carry
// distinct stamps, so the victim does not depend on the scan order.
func (s *VarState) admit(i int32) {
	size := s.entries[i].size
	s.inMem += size
	if size > s.MaxVar {
		s.MaxVar = size
	}
	for s.over() {
		lru := -1
		for j := range s.entries {
			c := &s.entries[j]
			if int32(j) == i || c.refs == 0 || c.loc != InMemory {
				continue
			}
			if lru < 0 || c.stamp < s.entries[lru].stamp {
				lru = j
			}
		}
		if lru < 0 {
			// Single variable exceeding the budget stays pinned.
			break
		}
		v := &s.entries[lru]
		v.loc = OnHDFS
		s.inMem -= v.size
		s.Evictions++
		if v.dirty {
			s.evictIO += v.size
			v.dirty = false
		}
	}
	if s.inMem > s.Peak {
		s.Peak = s.inMem
	}
}

// over reports whether the pool holds more than its budget, the only test
// of the budget, narrowing span, if set, to the budgets (never negative)
// for which the test comes out the same, as lop's budget.fits does.
func (s *VarState) over() bool {
	over := s.budget > 0 && s.inMem > s.budget
	if sp := s.span; sp != nil {
		switch {
		case s.budget <= 0:
			sp.Hi = min(sp.Hi, 1)
		case over:
			sp.Lo, sp.Hi = max(sp.Lo, 1), min(sp.Hi, s.inMem)
		default:
			sp.Lo = max(sp.Lo, s.inMem)
		}
	}
	return over
}

// EvictionIO returns the accumulated eviction write bytes.
func (s *VarState) EvictionIO() conf.Bytes { return s.evictIO }

// SetBudget adjusts the buffer-pool capacity (after an AM migration to a
// container of different size).
func (s *VarState) SetBudget(b conf.Bytes) { s.budget = b }

// DirtyBytes returns the total size of dirty in-memory variables — the IO
// component of the migration cost C_M (paper §4.2). It counts an entry
// once per name bound to it, while FlushAll writes it once, so aliased
// dirty state overstates C_M; the migration figures are pinned on this
// count.
func (s *VarState) DirtyBytes() conf.Bytes {
	var total conf.Bytes
	for _, b := range s.binds {
		if v := &s.entries[b.entry]; v.loc == InMemory && v.dirty {
			total += v.size
		}
	}
	return total
}

// FlushAll exports every dirty variable and demotes all residents to HDFS,
// returning the written bytes. This models AM runtime migration: the state
// is materialized on HDFS and lazily restored by the new container's
// buffer pool.
func (s *VarState) FlushAll() conf.Bytes {
	var written conf.Bytes
	for _, b := range s.binds {
		if v := &s.entries[b.entry]; v.loc == InMemory {
			if v.dirty {
				written += v.size
				v.dirty = false
			}
			v.loc = OnHDFS
		}
	}
	s.inMem = 0
	return written
}
