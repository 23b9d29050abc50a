package mr

import (
	"errors"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
)

func faultJobSpec() JobSpec {
	return JobSpec{
		Name:      "GMR(test)",
		NumMaps:   64,
		MapInput:  8 * conf.GB,
		MapFlops:  2e9,
		MapOutput: 512 * conf.MB,
	}
}

// underFaults layers the fault model on spec's fault-free charge with
// 2 GB task and CP heaps.
func underFaults(cc conf.Cluster, spec JobSpec, inj *fault.Injector, pol TaskPolicy) (TimeBreakdown, TaskReport, error) {
	par := ComputeParallelism(cc, 2*conf.GB, 2*conf.GB, spec.NumMaps)
	return EstimateTimeUnderFaultsTraced(cc, spec, par, EstimateTimeAt(cc, spec, par), inj, pol, nil, 0)
}

func TestNoFaultsMatchesBaseline(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := faultJobSpec()
	base := estimate(cc, spec, 2*conf.GB, 2*conf.GB)
	got, rep, err := underFaults(cc, spec, nil, DefaultTaskPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != base.Total() || rep.Any() {
		t.Errorf("nil injector must be a no-op: %v vs %v, rep %+v", got.Total(), base.Total(), rep)
	}
	idle := fault.MustInjector(fault.Plan{Seed: 1})
	got, _, err = underFaults(cc, spec, idle, DefaultTaskPolicy())
	if err != nil || got.Total() != base.Total() {
		t.Errorf("empty plan must be a no-op: %v vs %v (%v)", got.Total(), base.Total(), err)
	}
}

func TestRetriesAddRecoveryCost(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := faultJobSpec()
	base := estimate(cc, spec, 2*conf.GB, 2*conf.GB)
	inj := fault.MustInjector(fault.Plan{Seed: 2, TaskFailureProb: 0.3})
	bd, rep, err := underFaults(cc, spec, inj, DefaultTaskPolicy())
	if err != nil {
		t.Fatalf("p=0.3 with 4 attempts should recover: %v", err)
	}
	if rep.Retries == 0 {
		t.Fatal("expected injected retries")
	}
	if bd.Recovery <= 0 {
		t.Error("recovery cost missing from breakdown")
	}
	if bd.Total() <= base.Total() {
		t.Errorf("faulty run not slower: %.2f vs %.2f", bd.Total(), base.Total())
	}
	// Recovery is exactly the delta against the fault-free breakdown.
	if diff := bd.Total() - base.Total() - bd.Recovery; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("recovery %.3f != delta %.3f", bd.Recovery, bd.Total()-base.Total())
	}
}

func TestNoRetryPolicyAborts(t *testing.T) {
	cc := conf.DefaultCluster()
	inj := fault.MustInjector(fault.Plan{Seed: 3, TaskFailureProb: 0.5})
	_, _, err := underFaults(cc, faultJobSpec(), inj,
		TaskPolicy{MaxAttempts: 1})
	if !errors.Is(err, ErrTaskFailed) {
		t.Errorf("MaxAttempts=1 under p=0.5 should abort, got %v", err)
	}
}

func TestExhaustedAttemptsAbort(t *testing.T) {
	cc := conf.DefaultCluster()
	inj := fault.MustInjector(fault.Plan{Seed: 4, TaskFailureProb: 1.0})
	_, _, err := underFaults(cc, faultJobSpec(), inj, DefaultTaskPolicy())
	if !errors.Is(err, ErrTaskFailed) {
		t.Errorf("p=1 must exhaust every retry, got %v", err)
	}
}

func TestSpeculationSoftensStragglers(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := faultJobSpec()
	plan := fault.Plan{Seed: 5, StragglerProb: 0.2, StragglerFactor: 8}

	slow, repNoSpec, err := underFaults(cc, spec,
		fault.MustInjector(plan), TaskPolicy{MaxAttempts: 4, Speculative: false})
	if err != nil {
		t.Fatal(err)
	}
	fast, repSpec, err := underFaults(cc, spec,
		fault.MustInjector(plan), DefaultTaskPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if repNoSpec.Stragglers == 0 || repSpec.Stragglers != repNoSpec.Stragglers {
		t.Fatalf("same seed must straggle identically: %+v vs %+v", repNoSpec, repSpec)
	}
	if repSpec.Speculated == 0 {
		t.Error("speculation should have rescued 8x stragglers")
	}
	if fast.Recovery >= slow.Recovery {
		t.Errorf("speculation did not help: %.2f vs %.2f", fast.Recovery, slow.Recovery)
	}
}

func TestShuffledJobSamplesReducers(t *testing.T) {
	cc := conf.DefaultCluster()
	spec := faultJobSpec()
	spec.ShuffleBytes = 2 * conf.GB
	spec.NumReducers = 12
	spec.ReduceFlops = 1e9
	spec.ReduceOutput = 256 * conf.MB
	inj := fault.MustInjector(fault.Plan{Seed: 6, TaskFailureProb: 0.2})
	_, rep, err := underFaults(cc, spec, inj, DefaultTaskPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != spec.NumMaps+spec.NumReducers {
		t.Errorf("sampled %d tasks, want maps+reducers = %d", rep.Tasks, spec.NumMaps+spec.NumReducers)
	}
}

func TestFaultModelDeterministic(t *testing.T) {
	cc := conf.DefaultCluster()
	plan := fault.Plan{Seed: 7, TaskFailureProb: 0.1, StragglerProb: 0.1, StragglerFactor: 4}
	run := func() (TimeBreakdown, TaskReport) {
		bd, rep, err := underFaults(cc, faultJobSpec(),
			fault.MustInjector(plan), DefaultTaskPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return bd, rep
	}
	bd1, rep1 := run()
	bd2, rep2 := run()
	if bd1 != bd2 || rep1 != rep2 {
		t.Errorf("same seed diverged: %+v/%+v vs %+v/%+v", bd1, rep1, bd2, rep2)
	}
}

// TestEffectiveSlowdown: speculation caps a straggler's slowdown at
// SpeculativeCap; without speculation the full factor applies; sub-1 factors
// normalize to no slowdown.
func TestEffectiveSlowdown(t *testing.T) {
	if f, spec := EffectiveSlowdown(6, true); f != SpeculativeCap || !spec {
		t.Errorf("speculated straggler: got (%g, %v), want (%g, true)", f, spec, SpeculativeCap)
	}
	if f, spec := EffectiveSlowdown(1.2, true); f != 1.2 || spec {
		t.Errorf("mild straggler below cap: got (%g, %v), want (1.2, false)", f, spec)
	}
	if f, spec := EffectiveSlowdown(6, false); f != 6 || spec {
		t.Errorf("no speculation: got (%g, %v), want (6, false)", f, spec)
	}
	if f, spec := EffectiveSlowdown(0.5, true); f != 1 || spec {
		t.Errorf("sub-1 factor: got (%g, %v), want (1, false)", f, spec)
	}
}
