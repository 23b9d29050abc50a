package opt

import (
	"math"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/scripts"
)

func compileHP(t *testing.T, spec scripts.Spec, n, m int64, sparsity float64) *hop.Program {
	t.Helper()
	fs := hdfs.New()
	nnz := int64(float64(n*m) * sparsity)
	fs.PutDescriptor("/data/X", n, m, nnz, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := hop.NewCompiler(fs, spec.Params)
	hp, err := c.Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return hp
}

func TestGridGenerators(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregDS(), 1_000_000, 1000, 1.0) // 8GB

	equi := EnumGridPoints(hp, cc, GridEqui, 15)
	if len(equi) != 15 {
		t.Errorf("Equi points = %d, want 15", len(equi))
	}
	if equi[0] != cc.MinHeap() || equi[14] != cc.MaxHeap() {
		t.Errorf("Equi bounds wrong: %v .. %v", equi[0], equi[14])
	}

	exp := EnumGridPoints(hp, cc, GridExp, 15)
	if len(exp) < 7 || len(exp) > 10 {
		t.Errorf("Exp points = %d, want ~8 (logarithmic)", len(exp))
	}
	for i := 1; i < len(exp)-1; i++ {
		if exp[i] != exp[i-1]*2 {
			t.Errorf("Exp spacing broken at %d: %v -> %v", i, exp[i-1], exp[i])
		}
	}

	mem := EnumGridPoints(hp, cc, GridMem, 15)
	if len(mem) == 0 || len(mem) > 15 {
		t.Errorf("Mem points = %d, want small program-derived set", len(mem))
	}

	hyb := EnumGridPoints(hp, cc, GridHybrid, 15)
	if len(hyb) < len(exp) {
		t.Errorf("Hybrid (%d) must cover Exp (%d)", len(hyb), len(exp))
	}
	// Ascending and unique.
	for _, pts := range [][]conf.Bytes{equi, exp, mem, hyb} {
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Errorf("points not strictly ascending: %v", pts)
			}
		}
	}
}

func TestMemGridAdaptsToDataSize(t *testing.T) {
	cc := conf.DefaultCluster()
	// XS data: all estimates below the minimum constraint => 1 point.
	xs := compileHP(t, scripts.LinregDS(), 10_000, 1000, 1.0) // 80MB
	memXS := EnumGridPoints(xs, cc, GridMem, 15)
	// M data: several distinct plan-change points.
	m := compileHP(t, scripts.LinregDS(), 1_000_000, 1000, 1.0) // 8GB
	memM := EnumGridPoints(m, cc, GridMem, 15)
	if len(memXS) >= len(memM) {
		t.Errorf("Mem grid should grow with data: XS=%d M=%d", len(memXS), len(memM))
	}
	if len(memXS) != 1 {
		t.Errorf("XS Mem grid = %d points, want 1 (all estimates < min)", len(memXS))
	}
}

// baselineCost evaluates a static configuration through the optimizer's
// estimator for comparison.
func baselineCost(cc conf.Cluster, hp *hop.Program, cp, mrH conf.Bytes) float64 {
	est := cost.NewEstimator(cc)
	return est.ProgramCost(lop.Select(hp, cc, conf.NewResources(cp, mrH, hp.NumLeaf)))
}

func TestOptimizerBeatsOrMatchesBaselines(t *testing.T) {
	cc := conf.DefaultCluster()
	cases := []struct {
		spec scripts.Spec
		n, m int64
		sp   float64
	}{
		{scripts.LinregDS(), 100_000, 1000, 1.0},   // S dense1000
		{scripts.LinregDS(), 1_000_000, 1000, 1.0}, // M dense1000
		{scripts.LinregCG(), 1_000_000, 1000, 1.0},
		{scripts.L2SVM(), 1_000_000, 1000, 1.0},
		{scripts.LinregCG(), 10_000_000, 100, 0.01}, // sparse100
	}
	maxHeap := cc.MaxHeap()
	taskMax := conf.BytesOfGB(4.4)
	for _, tc := range cases {
		hp := compileHP(t, tc.spec, tc.n, tc.m, tc.sp)
		o := New(cc)
		res := o.Optimize(hp)
		if res == nil {
			t.Fatalf("%s: no result", tc.spec.Name)
		}
		baselines := []float64{
			baselineCost(cc, hp, cc.MinHeap(), cc.MinHeap()), // B-SS
			baselineCost(cc, hp, maxHeap, cc.MinHeap()),      // B-LS
			baselineCost(cc, hp, cc.MinHeap(), taskMax),      // B-SL
			baselineCost(cc, hp, maxHeap, taskMax),           // B-LL
		}
		for i, b := range baselines {
			if res.Cost > b*1.05 {
				t.Errorf("%s (%dx%d): Opt cost %.1f worse than baseline %d (%.1f)",
					tc.spec.Name, tc.n, tc.m, res.Cost, i, b)
			}
		}
	}
}

func TestOptimizerMemoryPreferences(t *testing.T) {
	cc := conf.DefaultCluster()
	// DS on 8GB dense1000 is compute intensive: prefers small CP,
	// distributed plan (paper Figure 1 left).
	ds := compileHP(t, scripts.LinregDS(), 1_000_000, 1000, 1.0)
	dsRes := New(cc).Optimize(ds)
	// CG on the same data is IO bound: prefers a CP that fits X (~12GB+)
	// (paper Figure 1 right).
	cg := compileHP(t, scripts.LinregCG(), 1_000_000, 1000, 1.0)
	cgRes := New(cc).Optimize(cg)
	if dsRes.Res.CP >= cgRes.Res.CP {
		t.Errorf("DS CP (%v) should be smaller than CG CP (%v)", dsRes.Res.CP, cgRes.Res.CP)
	}
	if cc.OpBudget(cgRes.Res.CP) < conf.Bytes(8e9) {
		t.Errorf("CG CP = %v: budget %v cannot pin the 8e9-byte X",
			cgRes.Res.CP, cc.OpBudget(cgRes.Res.CP))
	}
}

func TestPruningEffectiveness(t *testing.T) {
	cc := conf.DefaultCluster()
	// XS data: every operation fits everywhere; all blocks pruned.
	xs := compileHP(t, scripts.L2SVM(), 10_000, 1000, 1.0)
	res := New(cc).Optimize(xs)
	if res.Stats.RemainingBlocks != 0 {
		t.Errorf("XS: remaining blocks = %d, want 0", res.Stats.RemainingBlocks)
	}
	// M data: some blocks remain but fewer than total.
	m := compileHP(t, scripts.L2SVM(), 1_000_000, 1000, 1.0)
	resM := New(cc).Optimize(m)
	if resM.Stats.RemainingBlocks == 0 {
		t.Error("M: expected some remaining blocks")
	}
	if resM.Stats.RemainingBlocks >= resM.Stats.TotalBlocks {
		t.Errorf("M: pruning ineffective: %d/%d", resM.Stats.RemainingBlocks, resM.Stats.TotalBlocks)
	}
}

func TestPruningPreservesResult(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregCG(), 1_000_000, 1000, 1.0)
	withP := New(cc)
	withP.Opts.Points = 7
	a := withP.Optimize(hp)
	noP := New(cc)
	noP.Opts.Points = 7
	noP.Opts.DisablePruning = true
	b := noP.Optimize(hp)
	if math.Abs(a.Cost-b.Cost) > 1e-6*math.Max(a.Cost, 1) {
		t.Errorf("pruning changed result: %.3f vs %.3f", a.Cost, b.Cost)
	}
	if a.Stats.BlockCompilations >= b.Stats.BlockCompilations {
		t.Errorf("pruning should reduce compilations: %d vs %d",
			a.Stats.BlockCompilations, b.Stats.BlockCompilations)
	}
}

func TestOptimizeWithCurrent(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregCG(), 1_000_000, 1000, 1.0)
	o := New(cc)
	cur := 2 * conf.GB
	global, local := o.OptimizeWithCurrent(hp, cur)
	if global == nil || local == nil {
		t.Fatal("missing results")
	}
	if local.Res.CP != cur {
		t.Errorf("local CP = %v, want %v", local.Res.CP, cur)
	}
	if global.Cost > local.Cost {
		t.Errorf("global cost %.1f must be <= local %.1f", global.Cost, local.Cost)
	}
}

func TestStatsPopulated(t *testing.T) {
	cc := conf.DefaultCluster()
	hp := compileHP(t, scripts.LinregDS(), 1_000_000, 1000, 1.0)
	res := New(cc).Optimize(hp)
	s := res.Stats
	if s.BlockCompilations == 0 || s.Costings == 0 || s.OptTime <= 0 {
		t.Errorf("stats incomplete: %+v", s)
	}
	if s.CPPoints == 0 || s.MRPoints == 0 {
		t.Errorf("grid sizes missing: %+v", s)
	}
	if s.TotalBlocks != hp.NumLeaf {
		t.Errorf("TotalBlocks = %d, want %d", s.TotalBlocks, hp.NumLeaf)
	}
}

func TestMinimalResourcesOnTies(t *testing.T) {
	cc := conf.DefaultCluster()
	// XS data: many configurations share the minimal cost (pure CP plans);
	// the optimizer must return the smallest.
	hp := compileHP(t, scripts.LinregDS(), 10_000, 100, 1.0)
	res := New(cc).Optimize(hp)
	// The smallest CP whose plan is latency-free should win; it must be
	// far below the max.
	if res.Res.CP > 8*conf.GB {
		t.Errorf("tie-breaking failed: CP = %v (over-provisioned)", res.Res.CP)
	}
}
