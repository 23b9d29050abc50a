package mr

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/perf"
)

// estimate charges spec at the parallelism of the given task and CP heaps.
func estimate(cc conf.Cluster, spec JobSpec, taskHeap, cpHeap conf.Bytes) TimeBreakdown {
	return EstimateTimeAt(cc, spec, ComputeParallelism(cc, taskHeap, cpHeap, spec.NumMaps))
}

func TestParallelismArithmetic(t *testing.T) {
	cc := conf.DefaultCluster()
	// 4.4GB tasks: 12 scheduled per node, 72 cluster-wide minus CP share.
	p := ComputeParallelism(cc, conf.BytesOfGB(4.4), 512*conf.MB, 1000)
	if p.PerNodeScheduled != 12 {
		t.Errorf("PerNodeScheduled = %d, want 12", p.PerNodeScheduled)
	}
	if p.Scheduled < 70 || p.Scheduled > 72 {
		t.Errorf("Scheduled = %d, want ~71", p.Scheduled)
	}
	if p.Effective != p.Scheduled {
		t.Errorf("Effective %d != Scheduled %d for core-fitting tasks", p.Effective, p.Scheduled)
	}
}

func TestParallelismSmallTasksOversubscribe(t *testing.T) {
	cc := conf.DefaultCluster()
	// 512MB tasks -> 768MB containers -> 106 scheduled per node,
	// far beyond 12 cores: effective capped at cluster cores.
	p := ComputeParallelism(cc, 512*conf.MB, 512*conf.MB, 10000)
	if p.PerNodeScheduled <= cc.CoresPerNode {
		t.Errorf("PerNodeScheduled = %d, expected oversubscription", p.PerNodeScheduled)
	}
	if p.Effective != cc.TotalCores() {
		t.Errorf("Effective = %d, want %d", p.Effective, cc.TotalCores())
	}
}

func TestParallelismCappedByTasks(t *testing.T) {
	cc := conf.DefaultCluster()
	p := ComputeParallelism(cc, 2*conf.GB, 512*conf.MB, 3)
	if p.Scheduled != 3 {
		t.Errorf("Scheduled = %d, want 3 (few tasks)", p.Scheduled)
	}
}

func TestLargeCPReducesTaskSlots(t *testing.T) {
	cc := conf.DefaultCluster()
	small := ComputeParallelism(cc, 4*conf.GB, 512*conf.MB, 1000)
	large := ComputeParallelism(cc, 4*conf.GB, conf.BytesOfGB(53.3), 1000)
	if large.Scheduled >= small.Scheduled {
		t.Errorf("large CP should displace task slots: %d >= %d", large.Scheduled, small.Scheduled)
	}
}

func TestJobTimeLatencyDominatesSmallJobs(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := JobSpec{Name: "tiny", NumMaps: 1, MapInput: 10 * conf.MB, MapFlops: 1e6}
	bd := estimate(cc, spec, 2*conf.GB, 512*conf.MB)
	if bd.JobLatency != perf.JobLatency {
		t.Errorf("JobLatency = %v", bd.JobLatency)
	}
	if bd.Total() < perf.JobLatency || bd.Total() > perf.JobLatency+perf.TaskLatency+1 {
		t.Errorf("tiny job total %v should be dominated by latency", bd.Total())
	}
}

func TestJobTimeScalesWithWaves(t *testing.T) {
	cc := conf.DefaultCluster()
	// 640 maps at ~71 slots => 9 waves.
	spec := JobSpec{Name: "big", NumMaps: 640, MapInput: 80 * conf.GB, MapFlops: 1e12}
	bd := estimate(cc, spec, conf.BytesOfGB(4.4), 512*conf.MB)
	if bd.TaskLatency < 8*perf.TaskLatency {
		t.Errorf("TaskLatency = %v, want >= %v", bd.TaskLatency, 8*perf.TaskLatency)
	}
}

func TestThrashingPenalty(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := JobSpec{Name: "j", NumMaps: 640, MapInput: 80 * conf.GB, MapFlops: 1e12}
	// Small tasks oversubscribe and thrash; 4.4GB tasks do not.
	smallTasks := estimate(cc, spec, 512*conf.MB, 512*conf.MB)
	bigTasks := estimate(cc, spec, conf.BytesOfGB(4.4), 512*conf.MB)
	if smallTasks.MapCompute <= bigTasks.MapCompute {
		t.Errorf("thrashing should inflate small-task compute: %v <= %v",
			smallTasks.MapCompute, bigTasks.MapCompute)
	}
}

func TestBroadcastCost(t *testing.T) {
	cc := conf.DefaultCluster()
	base := JobSpec{Name: "mapmm", NumMaps: 64, MapInput: 8 * conf.GB, MapFlops: 1e10}
	withB := base
	withB.BroadcastInput = 100 * conf.MB
	t0 := estimate(cc, base, 2*conf.GB, 512*conf.MB)
	t1 := estimate(cc, withB, 2*conf.GB, 512*conf.MB)
	if t1.Total() <= t0.Total() {
		t.Error("broadcast input should add cost")
	}
	if t1.Broadcast <= 0 {
		t.Error("broadcast phase should be charged")
	}
}

func TestShuffleJobVsMapOnly(t *testing.T) {
	cc := conf.DefaultCluster()
	mapOnly := JobSpec{Name: "m", NumMaps: 64, MapInput: 8 * conf.GB, MapFlops: 1e10, MapOutput: 100 * conf.MB}
	shuffled := mapOnly
	shuffled.ShuffleBytes = 8 * conf.GB
	shuffled.NumReducers = cc.Reducers
	shuffled.ReduceOutput = 8 * conf.GB
	a := estimate(cc, mapOnly, 2*conf.GB, 512*conf.MB)
	b := estimate(cc, shuffled, 2*conf.GB, 512*conf.MB)
	if !mapOnly.MapOnly() || shuffled.MapOnly() {
		t.Fatal("MapOnly misclassification")
	}
	if b.Total() <= a.Total() {
		t.Errorf("shuffle job %v should cost more than map-only %v", b.Total(), a.Total())
	}
	if b.Shuffle <= 0 || b.ReduceWrite <= 0 {
		t.Error("reduce phases should be charged")
	}
}

func TestExportCharged(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := JobSpec{Name: "e", NumMaps: 4, MapInput: 512 * conf.MB, ExportInput: conf.GB}
	bd := estimate(cc, spec, 2*conf.GB, 512*conf.MB)
	if bd.Export <= 0 {
		t.Error("export should be charged")
	}
}
