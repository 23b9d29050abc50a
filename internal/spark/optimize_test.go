package spark

import (
	"testing"

	"elasticml/internal/conf"
)

func TestOptimizeExecutorsReducesFootprint(t *testing.T) {
	cc := conf.DefaultCluster()
	// Scenario S (800MB): tiny data cannot use 330GB of executors.
	w := workload(100_000, 1000, 1.0)
	res := OptimizeExecutors(cc, w, PlanHybrid, 1.2)
	static := DefaultConfig()
	if res.Footprint >= static.ClusterFootprint() {
		t.Errorf("right-sized footprint %v not below static %v",
			res.Footprint, static.ClusterFootprint())
	}
	if res.MaxParallelApps <= 1 {
		t.Errorf("right-sizing should admit multiple apps, got %d", res.MaxParallelApps)
	}
	// Near-optimal cost retained.
	staticCost := Estimate(static, w, PlanHybrid)
	if res.Cost > staticCost*1.5 {
		t.Errorf("right-sized cost %.1f too far above static %.1f", res.Cost, staticCost)
	}
}

func TestOptimizeExecutorsKeepsCacheForLargeData(t *testing.T) {
	cc := conf.DefaultCluster()
	// Scenario L (80GB): the RDD cache sweet spot needs aggregate memory;
	// the optimizer must not shrink below it.
	w := workload(10_000_000, 1000, 1.0)
	res := OptimizeExecutors(cc, w, PlanHybrid, 1.1)
	if res.Config.AggregateCache() < conf.Bytes(8e10) {
		t.Errorf("L-scenario sizing lost the cache sweet spot: %v aggregate cache",
			res.Config.AggregateCache())
	}
	// And the cost stays within slack of the fully provisioned config.
	full := Estimate(DefaultConfig(), w, PlanHybrid)
	if res.Cost > full*1.15 {
		t.Errorf("cost %.1f vs full %.1f exceeds slack", res.Cost, full)
	}
}

func TestOptimizeExecutorsThroughputGain(t *testing.T) {
	cc := conf.DefaultCluster()
	w := workload(100_000, 1000, 1.0) // S
	sized := OptimizeExecutors(cc, w, PlanFull, 1.3)
	staticApps := maxApps(cc, DefaultConfig())
	if staticApps > 1 {
		t.Fatalf("static config should admit <=1 app, got %d", staticApps)
	}
	// Aggregate throughput = apps * (1/cost); right-sizing must win.
	staticCost := Estimate(DefaultConfig(), w, PlanFull)
	staticThroughput := 1.0 / staticCost
	sizedThroughput := float64(sized.MaxParallelApps) / sized.Cost
	if sizedThroughput <= staticThroughput {
		t.Errorf("right-sized throughput %.4f not above static %.4f",
			sizedThroughput, staticThroughput)
	}
}

func TestMaxAppsArithmetic(t *testing.T) {
	cc := conf.DefaultCluster()
	cfg := DefaultConfig() // 6 x 55GB + 20GB driver on 6 x 80GB nodes
	if got := maxApps(cc, cfg); got != 1 {
		t.Errorf("static config maxApps = %d, want 1", got)
	}
	small := cfg
	small.Executors = 2
	small.ExecutorMem = 8 * conf.GB
	small.DriverMem = 2 * conf.GB
	if got := maxApps(cc, small); got < 10 {
		t.Errorf("small config maxApps = %d, want >= 10", got)
	}
	zero := cfg
	zero.Executors = 0
	if maxApps(cc, zero) != 0 {
		t.Error("zero executors should admit zero apps")
	}
}
