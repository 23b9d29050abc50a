package rt

import (
	"errors"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/matrix"
	"elasticml/internal/mr"
	"elasticml/internal/scripts"
)

// simInterp builds a sim-mode MLogreg interpreter over descriptor inputs
// large enough to spawn MR jobs under a small CP.
func simInterp(t *testing.T) *Interp {
	t.Helper()
	n, m := int64(1_000_000), int64(100)
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	plan := compilePlan(t, scripts.MLogreg(), fs, res)
	ip := New(ModeSim, fs, conf.DefaultCluster(), res)
	ip.SimTableCols = 200
	ip.plan = plan
	return ip
}

func TestNodeFailureShrinksClusterAndTriggersAdapter(t *testing.T) {
	ip := simInterp(t)
	nodes0 := ip.CC.Nodes
	ip.Faults = fault.MustInjector(fault.Plan{Seed: 1,
		NodeFailures: []fault.NodeFailure{{Node: 0, At: 0}}})
	var lossTriggers int
	ip.Adapter = adapterFunc(func(ctx *AdaptContext) *AdaptDecision {
		if ctx.Trigger == TriggerContainerLoss {
			lossTriggers++
			if ctx.CC.Nodes != nodes0-1 {
				t.Errorf("adapter saw %d nodes, want shrunken %d", ctx.CC.Nodes, nodes0-1)
			}
		}
		return nil
	})
	if err := ip.Run(ip.plan); err != nil {
		t.Fatalf("run under one node failure: %v", err)
	}
	if ip.Stats.NodeFailures != 1 {
		t.Errorf("NodeFailures = %d, want 1", ip.Stats.NodeFailures)
	}
	if ip.CC.Nodes != nodes0-1 {
		t.Errorf("cluster not shrunk: %d nodes", ip.CC.Nodes)
	}
	if lossTriggers != 1 {
		t.Errorf("container-loss triggers = %d, want 1", lossTriggers)
	}
}

func TestLastNodeFailureAborts(t *testing.T) {
	ip := simInterp(t)
	ip.CC.Nodes = 1
	ip.Est.CC = ip.CC
	ip.Faults = fault.MustInjector(fault.Plan{Seed: 1,
		NodeFailures: []fault.NodeFailure{{Node: 0, At: 0}}})
	if err := ip.Run(ip.plan); !errors.Is(err, ErrClusterLost) {
		t.Errorf("losing the only node should abort with ErrClusterLost, got %v", err)
	}
}

func TestTaskFaultRecoveryChargedAndDeterministic(t *testing.T) {
	clean := simInterp(t)
	if err := clean.Run(clean.plan); err != nil {
		t.Fatal(err)
	}
	if clean.Stats.MRJobs == 0 {
		t.Fatal("scenario must spawn MR jobs")
	}

	run := func() *Interp {
		ip := simInterp(t)
		ip.Faults = fault.MustInjector(fault.Plan{Seed: 9, TaskFailureProb: 0.02,
			StragglerProb: 0.02, StragglerFactor: 4})
		if err := ip.Run(ip.plan); err != nil {
			t.Fatalf("faulty run: %v", err)
		}
		return ip
	}
	f1 := run()
	if f1.Stats.TaskRetries == 0 && f1.Stats.Stragglers == 0 {
		t.Fatal("no faults sampled; raise probabilities or change seed")
	}
	if f1.Stats.RecoverySeconds <= 0 {
		t.Error("recovery time not charged")
	}
	if f1.SimTime <= clean.SimTime {
		t.Errorf("faulty run not slower: %.1f vs %.1f", f1.SimTime, clean.SimTime)
	}
	f2 := run()
	if f1.SimTime != f2.SimTime || f1.Stats != f2.Stats {
		t.Errorf("same seed diverged: %.6f/%+v vs %.6f/%+v",
			f1.SimTime, f1.Stats, f2.SimTime, f2.Stats)
	}
}

func TestTaskFaultExhaustionAbortsRun(t *testing.T) {
	ip := simInterp(t)
	ip.Faults = fault.MustInjector(fault.Plan{Seed: 3, TaskFailureProb: 1})
	ip.Policy = mr.TaskPolicy{MaxAttempts: 1}
	if err := ip.Run(ip.plan); !errors.Is(err, mr.ErrTaskFailed) {
		t.Errorf("p=1 without retry should abort with ErrTaskFailed, got %v", err)
	}
}

func TestHDFSReadRetriesRecover(t *testing.T) {
	fs := hdfs.New()
	x := matrix.Random(200, 8, 1, -1, 1, 42)
	beta := matrix.Random(8, 1, 1, -1, 1, 43)
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", matrix.Mul(x, beta))
	res := conf.NewResources(2*conf.GB, 512*conf.MB, 64)
	plan := compilePlan(t, scripts.LinregDS(), fs, res)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	ip.Faults = fault.MustInjector(fault.Plan{Seed: 4, HDFSReadErrorProb: 0.5})
	if err := ip.Run(plan); err != nil {
		t.Fatalf("reads should recover via retry: %v", err)
	}
	if ip.Stats.HDFSRetries == 0 {
		t.Error("expected transient read retries under p=0.5")
	}
	if ip.Stats.RecoverySeconds <= 0 {
		t.Error("re-read cost not charged")
	}
	if _, err := fs.Stat("/out/beta"); err != nil {
		t.Errorf("output missing after recovered run: %v", err)
	}
}
