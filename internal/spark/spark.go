// Package spark models a stateful distributed executor framework in the
// style of Spark-on-YARN (paper §6, Appendix D): statically configured
// standing executors holding cached in-memory partitions, a driver process,
// and hand-coded execution plans for the L2SVM comparison. The model
// captures the three structural effects of Table 5:
//
//  1. small data underutilizes distributed stages (driver-side CP wins);
//  2. data fitting aggregate executor memory hits the RDD-cache sweet spot;
//  3. data far beyond aggregate memory degenerates to disk-bound scans.
//
// And the throughput effect of Table 6: a single application statically
// over-provisions the whole cluster.
package spark

import (
	"elasticml/internal/conf"
	"elasticml/internal/matrix"
	"elasticml/internal/perf"
)

// Config is a static Spark-style resource configuration.
type Config struct {
	// Executors is the number of standing executor containers.
	Executors int
	// ExecutorMem is the memory per executor.
	ExecutorMem conf.Bytes
	// ExecutorCores is the task parallelism per executor.
	ExecutorCores int
	// DriverMem is the driver container memory.
	DriverMem conf.Bytes
	// CacheFraction is the fraction of executor memory usable for cached
	// partitions (storage fraction).
	CacheFraction float64
	// StageLatency is the scheduling latency of one distributed stage —
	// far below an MR job launch, the framework's key advantage.
	StageLatency float64
	// DisksPerExecutor bounds scan parallelism for uncached data.
	DisksPerExecutor int
	// DeserFactor inflates uncached scans for deserialization of spilled
	// partitions (the paper: "similar disk IO and deserialization costs"
	// once data exceeds aggregate memory).
	DeserFactor float64
}

// DefaultConfig mirrors the paper's setup (§Appendix D): 6 executors with
// 55 GB and 24 cores each, 20 GB driver.
func DefaultConfig() Config {
	return Config{
		Executors:        6,
		ExecutorMem:      55 * conf.GB,
		ExecutorCores:    24,
		DriverMem:        20 * conf.GB,
		CacheFraction:    0.6,
		StageLatency:     0.5,
		DisksPerExecutor: 12,
		DeserFactor:      3.0,
	}
}

// AggregateCache returns the cluster-wide RDD cache capacity.
func (c Config) AggregateCache() conf.Bytes {
	return conf.Bytes(float64(c.ExecutorMem) * c.CacheFraction * float64(c.Executors))
}

// TotalCores returns the aggregate executor core count.
func (c Config) TotalCores() int { return c.Executors * c.ExecutorCores }

// ClusterFootprint returns the total memory held by a running application
// (driver plus standing executors) — the basis of the Table 6 throughput
// comparison.
func (c Config) ClusterFootprint() conf.Bytes {
	return c.DriverMem + conf.Bytes(c.Executors)*c.ExecutorMem
}

// PlanKind selects one of the two hand-coded L2SVM execution plans.
type PlanKind int

// The hand-coded plans of Appendix D.
const (
	// PlanHybrid runs only operations on the large X as distributed
	// stages; all vector operations execute in the driver.
	PlanHybrid PlanKind = iota
	// PlanFull runs every matrix operation as a distributed stage.
	PlanFull
)

func (p PlanKind) String() string {
	if p == PlanFull {
		return "Full"
	}
	return "Hybrid"
}

// L2SVMWorkload describes the comparison workload.
type L2SVMWorkload struct {
	Rows, Cols int64
	Sparsity   float64
	// OuterIters / InnerIters are the loop trip counts (the paper uses
	// maxi=5 with a short Newton line search).
	OuterIters, InnerIters int
}

// Estimate returns the end-to-end execution time of the hand-coded L2SVM
// plan under the given configuration and plan kind.
func Estimate(cfg Config, w L2SVMWorkload, plan PlanKind) float64 {
	dataSize := matrix.EstimateSize(w.Rows, w.Cols, w.Sparsity)
	cached := dataSize <= cfg.AggregateCache()

	scanPar := cfg.Executors * cfg.DisksPerExecutor
	deser := cfg.DeserFactor
	if deser < 1 {
		deser = 1
	}
	coldPass := perf.ReadTime(dataSize, scanPar) * deser
	warmPass := float64(dataSize) / (perf.MemBandwidth * float64(cfg.Executors))
	pass := func(first bool) float64 {
		if first || !cached {
			return coldPass
		}
		return warmPass
	}

	n, m := float64(w.Rows), float64(w.Cols)
	mvFlops := 2 * n * m * w.Sparsity // X %*% s or t(X) %*% v
	vecFlops := n                     // one elementwise pass over a vector
	dist := func(f float64) float64 { return perf.ComputeTime(f, cfg.TotalCores()) }
	driver := func(f float64) float64 { return perf.ComputeTime(f, 1) }

	// Vector operations run in the driver under the hybrid plan and as one
	// distributed stage each under the full plan (latency dominated).
	vectorOps := func(ops float64) float64 {
		if plan == PlanFull {
			return ops*cfg.StageLatency + dist(ops*vecFlops)
		}
		return driver(ops * vecFlops)
	}

	var t float64
	// Initial read plus g_old = t(X) %*% Y.
	t += cfg.StageLatency + pass(true) + dist(mvFlops)
	for it := 0; it < w.OuterIters; it++ {
		// Xd = X %*% s: one pass over X.
		t += cfg.StageLatency + pass(false) + dist(mvFlops)
		// Gradient chain t(X) %*% (out * Y): another pass over X.
		t += cfg.StageLatency + pass(false) + dist(mvFlops)
		// Inner Newton line search (~6 vector ops per iteration) plus
		// outer-loop vector updates (~5 ops).
		t += vectorOps(float64(6*w.InnerIters + 5))
	}
	return t
}
