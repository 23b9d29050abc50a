package spark

import (
	"testing"

	"elasticml/internal/conf"
)

func workload(n, m int64, sp float64) L2SVMWorkload {
	return L2SVMWorkload{Rows: n, Cols: m, Sparsity: sp, OuterIters: 5, InnerIters: 5}
}

func TestConfigArithmetic(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TotalCores() != 144 {
		t.Errorf("TotalCores = %d, want 144", cfg.TotalCores())
	}
	if cfg.AggregateCache() != conf.Bytes(float64(55*conf.GB)*0.6*6) {
		t.Errorf("AggregateCache = %v", cfg.AggregateCache())
	}
	if cfg.ClusterFootprint() != 20*conf.GB+6*55*conf.GB {
		t.Errorf("ClusterFootprint = %v", cfg.ClusterFootprint())
	}
}

func TestFullPlanSlowerThanHybridOnSmallData(t *testing.T) {
	cfg := DefaultConfig()
	// Scenario XS (80MB): Table 5 shows Plan 1 (25s) << Plan 2 (59s).
	w := workload(10_000, 1000, 1.0)
	hybrid := Estimate(cfg, w, PlanHybrid)
	full := Estimate(cfg, w, PlanFull)
	if hybrid >= full {
		t.Errorf("XS: hybrid %.1fs should beat full %.1fs", hybrid, full)
	}
	// The gap is dominated by stage latency of the vector ops.
	if full-hybrid < float64(5*6*5)*cfg.StageLatency/2 {
		t.Errorf("full-plan latency penalty too small: %.1fs", full-hybrid)
	}
}

func TestRDDCacheSweetSpot(t *testing.T) {
	cfg := DefaultConfig()
	// L (80GB) fits aggregate memory: iteration passes are memory-speed.
	l := Estimate(cfg, workload(10_000_000, 1000, 1.0), PlanHybrid)
	// XL (800GB) exceeds aggregate memory: every pass scans disk.
	xl := Estimate(cfg, workload(100_000_000, 1000, 1.0), PlanHybrid)
	if xl < 8*l {
		t.Errorf("XL (%.0fs) should be far more than 10x data of L (%.0fs) due to cache miss", xl, l)
	}
	// Verify caching is the cause: L with zero cache behaves like scaled XL.
	noCache := cfg
	noCache.CacheFraction = 0
	lCold := Estimate(noCache, workload(10_000_000, 1000, 1.0), PlanHybrid)
	if lCold <= l {
		t.Errorf("disabling cache should slow L: %.1fs <= %.1fs", lCold, l)
	}
}

func TestScaleMonotonicity(t *testing.T) {
	cfg := DefaultConfig()
	sizes := []int64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	prev := 0.0
	for _, n := range sizes {
		got := Estimate(cfg, workload(n, 1000, 1.0), PlanFull)
		if got < prev {
			t.Errorf("time not monotone in data size at n=%d: %.1f < %.1f", n, got, prev)
		}
		prev = got
	}
}

func TestSingleAppOccupiesCluster(t *testing.T) {
	cfg := DefaultConfig()
	cc := conf.DefaultCluster()
	// One executor per node leaves too little for a second application's
	// executors (Table 6: "a single Spark application already occupied the
	// entire cluster").
	perNodeFree := cc.MemPerNode - cfg.ExecutorMem
	if perNodeFree >= cfg.ExecutorMem {
		t.Errorf("a second app's executors would fit: %v free per node", perNodeFree)
	}
	if total := conf.Bytes(cc.Nodes) * cc.MemPerNode; cfg.ClusterFootprint() <= total/2 {
		t.Errorf("footprint %v should dominate cluster %v", cfg.ClusterFootprint(), total)
	}
}
