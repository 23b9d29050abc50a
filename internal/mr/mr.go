// Package mr models MapReduce job execution on the simulated YARN cluster:
// job descriptors carrying the IO/compute volumes of their map and reduce
// phases, degree-of-parallelism arithmetic from container sizing, and the
// analytic phase-by-phase time model used by both the cost model and the
// execution simulator (paper §3.1: "job and task latency, in-memory
// variable export, map read, map compute, map write, shuffle, reduce read,
// reduce compute, and reduce write times").
package mr

import (
	"elasticml/internal/conf"
	"elasticml/internal/perf"
)

// JobSpec describes one MR-job instruction, which may pack multiple
// map/reduce instructions produced by piggybacking.
type JobSpec struct {
	// Name labels the job for traces (e.g. "GMR(mapmm,uak+)").
	Name string
	// NumMaps is the number of map tasks (input splits).
	NumMaps int
	// MapInput is the total bytes scanned by map tasks.
	MapInput conf.Bytes
	// BroadcastInput is the distributed-cache bytes each map task loads
	// into memory (map-side broadcast operands of MapMM etc.).
	BroadcastInput conf.Bytes
	// ExportInput is the bytes of in-memory CP variables that must be
	// exported to HDFS before the job can read them.
	ExportInput conf.Bytes
	// MapOutput is the bytes written by map tasks (to HDFS for map-only
	// jobs, to local disk for shuffled jobs).
	MapOutput conf.Bytes
	// MapFlops is the total floating-point work of the map phase.
	MapFlops float64
	// ShuffleBytes is the bytes moved through the shuffle (0 => map-only).
	ShuffleBytes conf.Bytes
	// NumReducers is the number of reduce tasks (0 => map-only job).
	NumReducers int
	// ReduceFlops is the total floating-point work of the reduce phase.
	ReduceFlops float64
	// ReduceOutput is the bytes written by reduce tasks.
	ReduceOutput conf.Bytes
}

// MapOnly reports whether the job has no shuffle/reduce phase.
func (j JobSpec) MapOnly() bool { return j.NumReducers == 0 && j.ShuffleBytes == 0 }

// Parallelism describes the achieved concurrency of a job's map phase.
type Parallelism struct {
	// Scheduled is the number of concurrently scheduled map tasks
	// (memory-based YARN arithmetic), cluster-wide.
	Scheduled int
	// Effective is the CPU-effective concurrency (capped at cores).
	Effective int
	// PerNodeScheduled is the per-node scheduled task count, used to
	// detect cache thrashing.
	PerNodeScheduled int
}

// ComputeParallelism derives the map-phase concurrency for a job with the
// given task heap under the cluster configuration; the CP AM's container
// displaces task capacity on one node.
func ComputeParallelism(cc conf.Cluster, taskHeap, cpHeap conf.Bytes, numTasks int) Parallelism {
	perNode := cc.ScheduledTasksPerNode(taskHeap)
	scheduled := perNode * cc.Nodes
	// Reserve the CP AM's footprint.
	cpContainer := cc.ContainerSize(cpHeap)
	taskContainer := cc.ContainerSize(taskHeap)
	if taskContainer > 0 {
		displaced := int((cpContainer + taskContainer - 1) / taskContainer)
		if displaced > perNode {
			displaced = perNode
		}
		scheduled -= displaced
	}
	if scheduled < 1 {
		scheduled = 1
	}
	if numTasks > 0 && scheduled > numTasks {
		scheduled = numTasks
	}
	effective := scheduled
	if max := cc.TotalCores(); effective > max {
		effective = max
	}
	pns := perNode
	if numTasks > 0 && pns > (numTasks+cc.Nodes-1)/cc.Nodes {
		pns = (numTasks + cc.Nodes - 1) / cc.Nodes
	}
	return Parallelism{Scheduled: scheduled, Effective: effective, PerNodeScheduled: pns}
}

// TimeBreakdown itemizes the phases of a job's estimated execution time.
type TimeBreakdown struct {
	JobLatency  float64
	TaskLatency float64
	Export      float64
	MapRead     float64
	Broadcast   float64
	MapCompute  float64
	MapWrite    float64
	Shuffle     float64
	ReduceCompute,
	ReduceWrite float64
	// Recovery is the re-execution cost of injected task failures and
	// stragglers: retried attempt work, straggler tail latency, and the
	// extra task-launch waves of retries (0 without fault injection).
	Recovery float64
}

// Total returns the summed job time.
func (t TimeBreakdown) Total() float64 {
	return t.JobLatency + t.TaskLatency + t.Export + t.MapRead + t.Broadcast +
		t.MapCompute + t.MapWrite + t.Shuffle + t.ReduceCompute + t.ReduceWrite +
		t.Recovery
}

// EstimateTimeAt evaluates the analytic job time model for the given spec
// and cluster at the map-phase parallelism par
// (ComputeParallelism of the task and CP heaps, which is all the model
// reads of them). Cache thrashing (more scheduled tasks per node than the
// model's threshold) inflates map compute and IO, reproducing the paper's
// B-SS < B-SL observation.
func EstimateTimeAt(cc conf.Cluster, spec JobSpec, par Parallelism) TimeBreakdown {
	waves := 1
	if par.Scheduled > 0 && spec.NumMaps > par.Scheduled {
		waves = (spec.NumMaps + par.Scheduled - 1) / par.Scheduled
	}
	thrash := 1.0
	if par.PerNodeScheduled > perf.CacheThrashThreshold {
		over := float64(par.PerNodeScheduled) / perf.CacheThrashThreshold
		thrash = 1 + (perf.CacheThrashFactor-1)*(over-1)
		if thrash > perf.CacheThrashFactor {
			thrash = perf.CacheThrashFactor
		}
	}

	var t TimeBreakdown
	t.JobLatency = perf.JobLatency
	t.TaskLatency = perf.TaskLatency * float64(waves)
	t.Export = perf.WriteTime(spec.ExportInput, 1)
	t.MapRead = perf.ReadTime(spec.MapInput, par.Effective) * thrash
	// Every map task loads the broadcast inputs; amortized across waves the
	// per-effective-slot cost is tasks/effective * read(broadcast at 1).
	if spec.BroadcastInput > 0 && spec.NumMaps > 0 {
		perTask := perf.ReadTime(spec.BroadcastInput, 1)
		t.Broadcast = perTask * float64(waves)
	}
	t.MapCompute = perf.ComputeTime(spec.MapFlops, par.Effective) * thrash
	t.MapWrite = perf.WriteTime(spec.MapOutput, par.Effective) * thrash
	if !spec.MapOnly() {
		redDop := spec.NumReducers
		if redDop < 1 {
			redDop = 1
		}
		if max := cc.TotalCores(); redDop > max {
			redDop = max
		}
		t.Shuffle = perf.ShuffleTime(spec.ShuffleBytes, redDop)
		t.ReduceCompute = perf.ComputeTime(spec.ReduceFlops, redDop)
		t.ReduceWrite = perf.WriteTime(spec.ReduceOutput, redDop)
	}
	return t
}
