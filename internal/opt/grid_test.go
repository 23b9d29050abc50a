package opt

import (
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
)

// TestGridDegenerateConstraints: with MinAlloc == MaxAlloc every generator
// must collapse to the single feasible point instead of emitting duplicates
// or an empty grid.
func TestGridDegenerateConstraints(t *testing.T) {
	cc := conf.DefaultCluster()
	cc.MinAlloc = cc.MaxAlloc
	hp := compileHP(t, scripts.LinregDS(), 1_000_000, 1000, 1.0)
	for _, g := range []GridType{GridEqui, GridExp, GridMem, GridHybrid} {
		pts := EnumGridPoints(hp, cc, g, 15)
		if len(pts) != 1 {
			t.Errorf("%v on degenerate constraints: %d points (%v), want 1", g, len(pts), pts)
		}
	}
}

// TestParseGridRoundTrip: every generator's name parses back to it, in any
// case, and an unknown name is an error.
func TestParseGridRoundTrip(t *testing.T) {
	for _, g := range []GridType{GridEqui, GridExp, GridMem, GridHybrid} {
		for _, name := range []string{g.String(), strings.ToLower(g.String()), strings.ToUpper(g.String())} {
			if got, err := ParseGrid(name); err != nil || got != g {
				t.Errorf("ParseGrid(%q) = %v, %v; want %v", name, got, err, g)
			}
		}
	}
	if _, err := ParseGrid("?"); err == nil {
		t.Error(`ParseGrid("?") accepted the unknown generator's name`)
	}
}

// TestMemoryEstimatesDeduped: operators sharing one memory estimate (the
// repeated X %*% v patterns of LinregDS) must contribute a single grid
// anchor, and the estimate list must come back strictly ascending.
func TestMemoryEstimatesDeduped(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregDS(), 1_000_000, 1000, 1.0)
	ests := MemoryEstimates(hp, cc)
	if len(ests) == 0 {
		t.Fatal("no memory estimates for an 8GB program")
	}
	for i := 1; i < len(ests); i++ {
		if ests[i] <= ests[i-1] {
			t.Errorf("estimates not strictly ascending at %d: %v", i, ests)
		}
	}
	// Far fewer distinct estimates than matrix operators.
	if len(ests) > 32 {
		t.Errorf("estimate dedup ineffective: %d distinct values", len(ests))
	}
}

// TestGridMemDuplicateBrackets: neighbouring estimates bracketed by the same
// base-grid points must not duplicate those points.
func TestGridMemDuplicateBrackets(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.MLogreg(), 1_000_000, 1000, 1.0)
	pts := EnumGridPoints(hp, cc, GridMem, 5) // coarse base: estimates share brackets
	seen := map[conf.Bytes]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Errorf("duplicate Mem grid point %v in %v", p, pts)
		}
		seen[p] = true
		if p < cc.MinHeap() || p > cc.MaxHeap() {
			t.Errorf("Mem point %v outside [%v, %v]", p, cc.MinHeap(), cc.MaxHeap())
		}
	}
}

// TestGridExpBounds: the exponential grid must start at the minimum heap,
// end exactly at the maximum heap, and stay inside the constraints even when
// the doubling sequence overshoots.
func TestGridExpBounds(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregDS(), 100_000, 1000, 1.0)
	pts := EnumGridPoints(hp, cc, GridExp, 15)
	if len(pts) < 2 {
		t.Fatalf("Exp grid too small: %v", pts)
	}
	if pts[0] != cc.MinHeap() {
		t.Errorf("Exp first point = %v, want MinHeap %v", pts[0], cc.MinHeap())
	}
	if pts[len(pts)-1] != cc.MaxHeap() {
		t.Errorf("Exp last point = %v, want MaxHeap %v", pts[len(pts)-1], cc.MaxHeap())
	}
	for _, p := range pts {
		if p < cc.MinHeap() || p > cc.MaxHeap() {
			t.Errorf("Exp point %v outside [%v, %v]", p, cc.MinHeap(), cc.MaxHeap())
		}
	}
}

// TestGridHybridDedup: the hybrid grid is the deduplicated union of the Mem
// and Exp grids — every point of both appears exactly once, ascending.
func TestGridHybridDedup(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregCG(), 1_000_000, 1000, 1.0)
	mem := EnumGridPoints(hp, cc, GridMem, 15)
	exp := EnumGridPoints(hp, cc, GridExp, 15)
	hyb := EnumGridPoints(hp, cc, GridHybrid, 15)

	in := map[conf.Bytes]bool{}
	for i, p := range hyb {
		if in[p] {
			t.Errorf("Hybrid grid contains %v twice", p)
		}
		in[p] = true
		if i > 0 && hyb[i-1] >= p {
			t.Errorf("Hybrid grid not ascending at %d: %v", i, hyb)
		}
	}
	for _, p := range mem {
		if !in[p] {
			t.Errorf("Hybrid grid missing Mem point %v", p)
		}
	}
	for _, p := range exp {
		if !in[p] {
			t.Errorf("Hybrid grid missing Exp point %v", p)
		}
	}
	if len(hyb) >= len(mem)+len(exp) {
		t.Errorf("no overlap deduplicated: |hyb|=%d, |mem|+|exp|=%d", len(hyb), len(mem)+len(exp))
	}
}

// TestStatsPruningCounters: the M-size program triggers both memoization
// hits (blocks pruned forever re-skipped at later CP points) and per-point
// block pruning; disabling pruning zeroes both counters. The flushed metrics
// registry must agree with the returned Stats.
func TestStatsPruningCounters(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregCG(), 1_000_000, 1000, 1.0)

	o := New(cc)
	o.Trace = obs.New(false)
	res := o.Optimize(hp)
	st := res.Stats
	if st.MemoHits == 0 {
		t.Error("expected memoization hits on the M-size program")
	}
	if st.PrunedBlocks == 0 {
		t.Error("expected pruned blocks on the M-size program")
	}
	m := o.Trace.Metrics()
	if got := m.Counter("opt.memo_hits"); got != int64(st.MemoHits) {
		t.Errorf("opt.memo_hits metric = %d, stats say %d", got, st.MemoHits)
	}
	if got := m.Counter("opt.pruned_blocks"); got != int64(st.PrunedBlocks) {
		t.Errorf("opt.pruned_blocks metric = %d, stats say %d", got, st.PrunedBlocks)
	}
	if got := m.Counter("opt.block_compilations"); got != int64(st.BlockCompilations) {
		t.Errorf("opt.block_compilations metric = %d, stats say %d", got, st.BlockCompilations)
	}

	noP := New(cc)
	noP.Opts.DisablePruning = true
	resNoP := noP.Optimize(hp)
	if resNoP.Stats.MemoHits != 0 || resNoP.Stats.PrunedBlocks != 0 {
		t.Errorf("pruning disabled but counters nonzero: %+v", resNoP.Stats)
	}
}
