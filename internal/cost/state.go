package cost

import (
	"elasticml/internal/conf"
	"elasticml/internal/hop"
)

// Location is a live variable's physical placement.
type Location int

// Variable locations.
const (
	OnHDFS Location = iota
	InMemory
)

// varInfo tracks one live variable or cached input file.
type varInfo struct {
	name  string
	loc   Location
	size  conf.Bytes
	dirty bool // in-memory state differs from HDFS representation
	stamp int64
}

// VarState models the buffer-pool view of live variables during plan
// scanning: which variables are pinned in CP memory, which reside on HDFS,
// and the IO cost of transitions (reads, exports, evictions).
type VarState struct {
	vars map[string]*varInfo
	// budget is the CP buffer-pool capacity; <= 0 disables capacity
	// enforcement (the optimizer's cost model only partially considers
	// evictions; the execution simulator enforces them).
	budget  conf.Bytes
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
	return &VarState{vars: make(map[string]*varInfo), budget: budget}
}

// Clone copies the state (used to evaluate conditional branches
// independently). Names that Alias bound to one storage entry stay bound to
// one entry in the copy: copying per name would split them into two
// residents with equal stamps, which inMem counts twice and between which
// the LRU victim scan chooses in map order.
func (s *VarState) Clone() *VarState {
	c := &VarState{vars: make(map[string]*varInfo, len(s.vars)),
		budget: s.budget, inMem: s.inMem, clock: s.clock, evictIO: s.evictIO,
		Evictions: s.Evictions, Restores: s.Restores, Peak: s.Peak, MaxVar: s.MaxVar}
	copies := make(map[*varInfo]*varInfo, len(s.vars))
	for k, v := range s.vars {
		cp, ok := copies[v]
		if !ok {
			dup := *v
			cp = &dup
			copies[v] = cp
		}
		c.vars[k] = cp
	}
	return c
}

func (s *VarState) touch(v *varInfo) {
	s.clock++
	v.stamp = s.clock
}

// keyOf returns the state key of a hop's referenced storage: variable name
// for treads/twrites, file path for persistent reads.
func keyOf(h *hop.Hop) (string, bool) {
	switch h.Kind {
	case hop.KindTRead, hop.KindTWrite:
		return "$" + h.Name, true
	case hop.KindRead:
		return h.Name, true
	}
	return "", false
}

// EnsureInMemory charges the IO needed to make the variable CP-resident and
// returns the read bytes (0 if already cached). Unknown variables are
// registered as HDFS-resident with the given size first.
func (s *VarState) EnsureInMemory(key string, size conf.Bytes) conf.Bytes {
	v, ok := s.vars[key]
	if !ok {
		v = &varInfo{name: key, loc: OnHDFS, size: size}
		s.vars[key] = v
	}
	s.touch(v)
	if v.loc == InMemory {
		return 0
	}
	v.loc = InMemory
	v.dirty = false
	s.Restores++
	s.admit(v)
	return v.size
}

// PutInMemory registers a CP-produced value (dirty: HDFS has no copy).
func (s *VarState) PutInMemory(key string, size conf.Bytes) {
	v, ok := s.vars[key]
	if !ok {
		v = &varInfo{name: key}
		s.vars[key] = v
	} else if v.loc == InMemory {
		s.inMem -= v.size
	}
	v.loc = InMemory
	v.size = size
	v.dirty = true
	s.touch(v)
	s.admit(v)
}

// PutOnHDFS registers an MR-produced value (resident on HDFS only).
func (s *VarState) PutOnHDFS(key string, size conf.Bytes) {
	v, ok := s.vars[key]
	if ok && v.loc == InMemory {
		s.inMem -= v.size
	}
	s.vars[key] = &varInfo{name: key, loc: OnHDFS, size: size}
}

// Alias binds dst to the same storage as src — a variable assignment
// without data movement (x = y, or x = read(f) binding the file). The two
// names share location, size and dirtiness from here on. Unknown sources
// register dst as HDFS-resident with the fallback size.
func (s *VarState) Alias(dst, src string, fallback conf.Bytes) {
	v, ok := s.vars[src]
	if !ok {
		s.PutOnHDFS(dst, fallback)
		return
	}
	if old, ok := s.vars[dst]; ok && old != v && old.loc == InMemory {
		s.inMem -= old.size
	}
	s.vars[dst] = v
}

// ExportBytes returns the bytes that must be written to HDFS before an MR
// job can scan the variable (dirty in-memory state), marking it clean.
func (s *VarState) ExportBytes(key string, size conf.Bytes) conf.Bytes {
	v, ok := s.vars[key]
	if !ok {
		s.vars[key] = &varInfo{name: key, loc: OnHDFS, size: size}
		return 0
	}
	if v.loc == InMemory && v.dirty {
		v.dirty = false
		return v.size
	}
	return 0
}

// Size returns the tracked size of a variable (fallback if untracked).
func (s *VarState) Size(key string, fallback conf.Bytes) conf.Bytes {
	if v, ok := s.vars[key]; ok && v.size > 0 {
		return v.size
	}
	return fallback
}

// InMemory reports whether the variable is currently CP-resident.
func (s *VarState) InMemory(key string) bool {
	v, ok := s.vars[key]
	return ok && v.loc == InMemory
}

// admit inserts the variable into the buffer pool, evicting
// least-recently-used entries beyond the capacity and accumulating their
// IO in evictIO (dirty pages are written; clean pages only drop).
func (s *VarState) admit(v *varInfo) {
	s.inMem += v.size
	if v.size > s.MaxVar {
		s.MaxVar = v.size
	}
	defer func() {
		if s.inMem > s.Peak {
			s.Peak = s.inMem
		}
	}()
	if s.budget <= 0 {
		return
	}
	for s.inMem > s.budget {
		var lru *varInfo
		for _, cand := range s.vars {
			if cand == v || cand.loc != InMemory {
				continue
			}
			if lru == nil || cand.stamp < lru.stamp {
				lru = cand
			}
		}
		if lru == nil {
			// Single variable exceeding the budget stays pinned.
			return
		}
		lru.loc = OnHDFS
		s.inMem -= lru.size
		s.Evictions++
		if lru.dirty {
			s.evictIO += lru.size
			lru.dirty = false
		}
	}
}

// EvictionIO returns the accumulated eviction write bytes.
func (s *VarState) EvictionIO() conf.Bytes { return s.evictIO }

// SetBudget adjusts the buffer-pool capacity (after an AM migration to a
// container of different size).
func (s *VarState) SetBudget(b conf.Bytes) { s.budget = b }

// DirtyBytes returns the total size of dirty in-memory variables — the IO
// component of the migration cost C_M (paper §4.2).
func (s *VarState) DirtyBytes() conf.Bytes {
	var total conf.Bytes
	for _, v := range s.vars {
		if v.loc == InMemory && v.dirty {
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
	for _, v := range s.vars {
		if v.loc == InMemory {
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
