package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/lop"
)

// mapState is the map-keyed buffer-pool model VarState replaced, kept as
// the oracle of TestVarStateMatchesMapOracle. A key is "$"+name for a
// variable, the path for a file and "#"+ID for a job output; names bound by
// Alias share one *mapVar.
type mapState struct {
	vars                map[string]*mapVar
	budget, inMem       conf.Bytes
	clock               int64
	evictIO             conf.Bytes
	Evictions, Restores int
	Peak, MaxVar        conf.Bytes
}

type mapVar struct {
	loc   Location
	size  conf.Bytes
	dirty bool
	stamp int64
}

func newMapState(budget conf.Bytes) *mapState {
	return &mapState{vars: make(map[string]*mapVar), budget: budget}
}

func (s *mapState) Clone() *mapState {
	c := *s
	c.vars = make(map[string]*mapVar, len(s.vars))
	copies := make(map[*mapVar]*mapVar, len(s.vars))
	for k, v := range s.vars {
		cp, ok := copies[v]
		if !ok {
			dup := *v
			cp = &dup
			copies[v] = cp
		}
		c.vars[k] = cp
	}
	return &c
}

func (s *mapState) touch(v *mapVar) {
	s.clock++
	v.stamp = s.clock
}

func (s *mapState) EnsureInMemory(key string, size conf.Bytes) conf.Bytes {
	v, ok := s.vars[key]
	if !ok {
		v = &mapVar{loc: OnHDFS, size: size}
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

func (s *mapState) PutInMemory(key string, size conf.Bytes) {
	v, ok := s.vars[key]
	if !ok {
		v = &mapVar{}
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

func (s *mapState) PutOnHDFS(key string, size conf.Bytes) {
	v, ok := s.vars[key]
	if ok && v.loc == InMemory {
		s.inMem -= v.size
	}
	s.vars[key] = &mapVar{loc: OnHDFS, size: size}
}

func (s *mapState) Alias(dst, src string, fallback conf.Bytes) {
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

func (s *mapState) ExportBytes(key string, size conf.Bytes) conf.Bytes {
	v, ok := s.vars[key]
	if !ok {
		s.vars[key] = &mapVar{loc: OnHDFS, size: size}
		return 0
	}
	if v.loc == InMemory && v.dirty {
		v.dirty = false
		return v.size
	}
	return 0
}

func (s *mapState) Size(key string, fallback conf.Bytes) conf.Bytes {
	if v, ok := s.vars[key]; ok && v.size > 0 {
		return v.size
	}
	return fallback
}

func (s *mapState) InMemory(key string) bool {
	v, ok := s.vars[key]
	return ok && v.loc == InMemory
}

func (s *mapState) admit(v *mapVar) {
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
		var lru *mapVar
		for _, cand := range s.vars {
			if cand == v || cand.loc != InMemory {
				continue
			}
			if lru == nil || cand.stamp < lru.stamp {
				lru = cand
			}
		}
		if lru == nil {
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

func (s *mapState) DirtyBytes() conf.Bytes {
	var total conf.Bytes
	for _, v := range s.vars {
		if v.loc == InMemory && v.dirty {
			total += v.size
		}
	}
	return total
}

func (s *mapState) FlushAll() conf.Bytes {
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

// oracleKey is k's key in the map model.
func oracleKey(k Key) string {
	switch k.Kind {
	case KeyVar:
		return "$" + k.Name
	case KeyJob:
		return fmt.Sprintf("#%d", k.ID)
	}
	return k.Name
}

// statePair is one state and its oracle, driven in lockstep.
type statePair struct {
	got  *VarState
	want *mapState
}

// TestVarStateMatchesMapOracle drives the slice-backed state and the map
// model with the same seeded random call sequences — aliased names, clones
// that continue independently, budgets small enough to evict on most
// admissions — and requires every return value and counter to agree after
// every call.
func TestVarStateMatchesMapOracle(t *testing.T) {
	keys := []Key{
		{Kind: KeyVar, Name: "a"}, {Kind: KeyVar, Name: "b"}, {Kind: KeyVar, Name: "c"},
		{Kind: KeyVar, Name: "d"}, {Kind: KeyVar, Name: "e"},
		{Kind: KeyFile, Name: "/x"}, {Kind: KeyFile, Name: "/y"},
		{Kind: KeyJob, ID: 1}, {Kind: KeyJob, ID: 2}, {Kind: KeyJob, ID: 3},
	}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		budget := conf.Bytes(r.Intn(250))
		pairs := []statePair{{NewVarState(budget), newMapState(budget)}}
		for step := 0; step < 400; step++ {
			pi := r.Intn(len(pairs))
			p := pairs[pi]
			k := keys[r.Intn(len(keys))]
			size := conf.Bytes(r.Intn(120))
			var op string
			var got, want any
			switch r.Intn(12) {
			case 0, 1:
				op = "EnsureInMemory"
				got, want = p.got.EnsureInMemory(k, size), p.want.EnsureInMemory(oracleKey(k), size)
			case 2, 3:
				op = "PutInMemory"
				p.got.PutInMemory(k, size)
				p.want.PutInMemory(oracleKey(k), size)
			case 4:
				op = "PutOnHDFS"
				p.got.PutOnHDFS(k, size)
				p.want.PutOnHDFS(oracleKey(k), size)
			case 5, 6:
				op = "Alias"
				src := keys[r.Intn(len(keys))]
				p.got.Alias(k, src, size)
				p.want.Alias(oracleKey(k), oracleKey(src), size)
			case 7:
				op = "ExportBytes"
				got, want = p.got.ExportBytes(k, size), p.want.ExportBytes(oracleKey(k), size)
			case 8:
				op = "Size/InMemory"
				got, want = p.got.Size(k, size), p.want.Size(oracleKey(k), size)
				if a, b := p.got.InMemory(k), p.want.InMemory(oracleKey(k)); a != b {
					t.Fatalf("seed %d step %d: InMemory(%v) = %v, oracle %v", seed, step, k, a, b)
				}
			case 9:
				op = "Clone"
				if len(pairs) < 4 {
					pairs = append(pairs, statePair{p.got.Clone(), p.want.Clone()})
				}
			case 10:
				op = "SetBudget"
				b := conf.Bytes(r.Intn(250))
				p.got.SetBudget(b)
				p.want.budget = b
			case 11:
				if r.Intn(4) == 0 {
					op = "FlushAll"
					got, want = p.got.FlushAll(), p.want.FlushAll()
				} else {
					op = "DirtyBytes"
					got, want = p.got.DirtyBytes(), p.want.DirtyBytes()
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s(%v) = %v, oracle %v", seed, step, op, k, got, want)
			}
			g, w := p.got, p.want
			if g.Evictions != w.Evictions || g.Restores != w.Restores || g.Peak != w.Peak ||
				g.MaxVar != w.MaxVar || g.EvictionIO() != w.evictIO || g.inMem != w.inMem {
				t.Fatalf("seed %d step %d after %s(%v): evictions %d/%d restores %d/%d peak %v/%v maxvar %v/%v evictIO %v/%v inMem %v/%v",
					seed, step, op, k, g.Evictions, w.Evictions, g.Restores, w.Restores, g.Peak, w.Peak,
					g.MaxVar, w.MaxVar, g.EvictionIO(), w.evictIO, g.inMem, w.inMem)
			}
			// Slots of unbound entries are reused: the table never holds
			// more entries than there are names.
			if len(g.entries) > len(keys) {
				t.Fatalf("seed %d step %d: %d entries for %d names", seed, step, len(g.entries), len(keys))
			}
		}
	}
}

// TestOverSpanExact: a sequence of admissions narrows the budget span to
// the budgets that resolve every capacity test the same way, and both of
// its ends replay the sequence's evictions. Under budget 100 the fills
// tested are 60, 110 (over: evict), 50, 80, 160 and 110 (over: evict
// twice) and 80: the largest that fit is 80, the smallest that did not
// 110.
func TestOverSpanExact(t *testing.T) {
	replay := func(budget conf.Bytes, sp *lop.Span) [2]int64 {
		s := NewVarState(budget)
		s.span = sp
		for i, size := range []conf.Bytes{60, 50, 30, 80} {
			s.PutInMemory(Key{Kind: KeyVar, Name: fmt.Sprint(i)}, size)
		}
		return [2]int64{int64(s.Evictions), int64(s.evictIO)}
	}
	sp := anyBudget
	want := replay(100, &sp)
	if sp != (lop.Span{Lo: 80, Hi: 110}) {
		t.Fatalf("span %+v after admissions under budget 100, want [80, 110)", sp)
	}
	for _, b := range []conf.Bytes{sp.Lo, sp.Hi - 1} {
		if got := replay(b, nil); got != want {
			t.Errorf("budget %d in span %+v evicts %v, budget 100 %v", b, sp, got, want)
		}
	}
}

// TestCellNeverHoldsWithHook: an estimator with a Hook must see every
// charge, so no cell answers for it.
func TestCellNeverHoldsWithHook(t *testing.T) {
	e := NewEstimator(conf.DefaultCluster())
	res := conf.NewResources(e.CC.MinHeap(), e.CC.MinHeap(), 1)
	c := &Cell{Budget: anyBudget, Cores: res.Cores()}
	if !e.Holds(c, res) {
		t.Fatal("a cell with every budget and no jobs does not hold")
	}
	e.Hook = func(string, float64) {}
	if e.Holds(c, res) {
		t.Error("a cell holds for an estimator with a Hook")
	}
}
