// Package perf holds the analytic performance model shared by the
// optimizer's white-box cost model and the execution simulator: default
// format-specific IO bandwidths, peak floating-point rates, and MapReduce
// job/task latencies (paper §3.1 and the companion costing report [4]).
//
// The constants are calibrated so the *relative* cost structure of the
// paper's cluster is preserved: MR job latency dominates for small data,
// shuffle-heavy plans lose to broadcast-based plans, and in-memory
// iteration beats repeated distributed scans once data fits in CP memory.
package perf

import "elasticml/internal/conf"

// The performance model used throughout the reproduction. The absolute
// values approximate commodity 2014 hardware (disk-array ~1 GB/s scan per
// node, ~2 GFLOP/s effective single-thread dense kernels, ~15s MR job
// latency on YARN).
const (
	// ReadBandwidth is the per-process HDFS read bandwidth (binary format).
	ReadBandwidth = 150 * 1e6 // bytes/s
	// WriteBandwidth is the per-process HDFS write bandwidth (binary format).
	WriteBandwidth = 100 * 1e6 // bytes/s
	// MemBandwidth is the in-memory copy/deserialize bandwidth used for
	// buffer-pool restores and exports.
	MemBandwidth = 4000 * 1e6 // bytes/s
	// PeakFlops is the single-threaded peak floating point rate of one
	// core; CP operations are single-threaded as in the paper (§6).
	PeakFlops = 2.0e9 // flop/s
	// JobLatency is the fixed startup latency of one MR job (scheduling,
	// AM spawn, JVM startup across waves).
	JobLatency = 15.0 // s
	// TaskLatency is the per-task-wave startup latency.
	TaskLatency = 2.0 // s
	// ShuffleBandwidth is the effective per-task shuffle bandwidth.
	ShuffleBandwidth = 60 * 1e6 // bytes/s
	// ContainerAllocLatency is the time to obtain a new YARN container,
	// part of the migration cost C_M (paper §4.2).
	ContainerAllocLatency = 2.0 // s
	// CacheThrashThreshold is the per-node concurrent task count above
	// which tasks suffer cache thrashing (paper §5.2: B-SS slower than
	// B-SL because too many concurrent small tasks trash the cache).
	CacheThrashThreshold = 12
	// CacheThrashFactor is the slowdown applied beyond the threshold.
	CacheThrashFactor = 2.0
)

// ReadTime returns the time to scan the given bytes from HDFS at
// per-process bandwidth times the degree of parallelism dop (>=1).
func ReadTime(b conf.Bytes, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	return float64(b) / (ReadBandwidth * float64(dop))
}

// WriteTime returns the time to write the given bytes to HDFS.
func WriteTime(b conf.Bytes, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	return float64(b) / (WriteBandwidth * float64(dop))
}

// ComputeTime returns the time for the given floating point operations at
// peak rate across dop parallel workers.
func ComputeTime(flops float64, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	if flops < 0 {
		flops = 0
	}
	return flops / (PeakFlops * float64(dop))
}

// ShuffleTime returns the time to shuffle the given bytes with the given
// aggregate task parallelism.
func ShuffleTime(b conf.Bytes, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	return float64(b) / (ShuffleBandwidth * float64(dop))
}
