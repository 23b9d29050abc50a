package spark

import "elasticml/internal/conf"

// The paper (§6, Appendix D) argues that resource optimization transfers
// to stateful frameworks: "resource optimization could help to reduce
// unnecessary over-provisioning to increase cluster throughput for unseen
// ML programs and data." This file provides that initial potential
// analysis: a what-if enumeration over executor counts and sizes that
// right-sizes a Spark-style application instead of statically claiming the
// whole cluster.

// SizingResult is a right-sized executor configuration.
type SizingResult struct {
	Config Config
	// Cost is the estimated execution time under Config.
	Cost float64
	// Footprint is the cluster memory held by the application.
	Footprint conf.Bytes
	// MaxParallelApps is how many such applications fit the cluster.
	MaxParallelApps int
}

// OptimizeExecutors enumerates executor counts and memory sizes for the
// workload, returning the cheapest configuration; among configurations
// within the slack factor of the optimum it returns the smallest footprint
// (the paper's secondary objective: prevent over-provisioning).
func OptimizeExecutors(cc conf.Cluster, w L2SVMWorkload, plan PlanKind, slack float64) SizingResult {
	base := DefaultConfig()
	if slack < 1 {
		slack = 1
	}
	var best SizingResult
	var cheapest float64 = -1

	execCounts := []int{1, 2, 3, 4, 5, 6}
	memSizes := []conf.Bytes{4 * conf.GB, 8 * conf.GB, 16 * conf.GB, 28 * conf.GB, 55 * conf.GB}
	var candidates []SizingResult
	for _, n := range execCounts {
		for _, mem := range memSizes {
			if mem > cc.MemPerNode {
				continue
			}
			cfg := base
			cfg.Executors = n
			cfg.ExecutorMem = mem
			// Right-size the driver as well (the paper reduced Spark's
			// driver memory for its throughput experiment).
			cfg.DriverMem = 2 * conf.GB
			c := Estimate(cfg, w, plan)
			candidates = append(candidates, SizingResult{Config: cfg, Cost: c,
				Footprint: cfg.ClusterFootprint(), MaxParallelApps: maxApps(cc, cfg)})
			if cheapest < 0 || c < cheapest {
				cheapest = c
			}
		}
	}
	// Among near-optimal candidates, minimize the footprint.
	for _, cand := range candidates {
		if cand.Cost <= cheapest*slack {
			if best.Footprint == 0 || cand.Footprint < best.Footprint ||
				(cand.Footprint == best.Footprint && cand.Cost < best.Cost) {
				best = cand
			}
		}
	}
	return best
}

// maxApps computes how many applications with the given configuration fit
// the cluster simultaneously: each needs one driver plus its executors,
// packed by per-node memory.
func maxApps(cc conf.Cluster, cfg Config) int {
	if cfg.Executors <= 0 || cfg.ExecutorMem <= 0 {
		return 0
	}
	// Executors per node across the cluster.
	perNode := int(cc.MemPerNode / cfg.ExecutorMem)
	totalExecSlots := perNode * cc.Nodes
	apps := totalExecSlots / cfg.Executors
	// Drivers also consume capacity; approximate by charging them against
	// the residual per-node memory.
	if cfg.DriverMem > 0 {
		residual := (cc.MemPerNode % cfg.ExecutorMem) * conf.Bytes(cc.Nodes)
		driverSlots := int(residual / cfg.DriverMem)
		if driverSlots < apps {
			// Drivers displace executor capacity.
			displacing := apps - driverSlots
			displaced := int64(displacing) * int64(cfg.DriverMem)
			lostExecs := int(displaced / int64(cfg.ExecutorMem))
			apps = (totalExecSlots - lostExecs) / cfg.Executors
		}
	}
	if apps < 0 {
		apps = 0
	}
	return apps
}
