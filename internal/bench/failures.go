package bench

// Failure sweep: end-to-end behaviour of the optimized/adaptive runtime
// under injected faults, against the static B-LL baseline. Not a figure
// from the paper — a robustness experiment over the same simulated stack:
// the elastic runtime retries failed tasks and re-optimizes after node
// loss, so it degrades gracefully where a static no-retry configuration
// aborts outright.

import (
	"errors"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/mr"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// failureSeed fixes the injector seed so the sweep is reproducible: same
// seed, byte-identical report (simulated seconds only — real optimization
// wall time is excluded from every printed number).
const failureSeed = 42

// optCharge is the fixed simulated cost charged per runtime
// re-optimization during the sweep (keeps adaptive runs deterministic).
const optCharge = 2.0

// FailureSweep (experiment "failures") reports simulated end-to-end time
// and recovery activity vs injected failure rate for LinregDS and MLogreg.
func (r *Runner) FailureSweep() error {
	if err := r.taskFailureSweep(); err != nil {
		return err
	}
	return r.nodeFailureSweep()
}

// taskFailureSweep compares B-LL without task retry (Hadoop with
// mapreduce.map.maxattempts=1: the first lost task attempt fails the job)
// against Opt+ReOpt with default retry/speculation, across task-failure
// rates. Straggler injection rides along at half the failure rate.
func (r *Runner) taskFailureSweep() error {
	size := "L"
	rates := []float64{0, 0.02, 0.05, 0.1}
	if r.Quick {
		rates = []float64{0, 0.05}
	}
	bll := Baselines(r.CC)[3]
	progs := []struct {
		spec    scripts.Spec
		classes int64
	}{
		{scripts.LinregDS(), 0},
		{scripts.MLogreg(), 20},
	}
	for _, p := range progs {
		s := datagen.New(size, 1000, 1.0)
		r.printf("Failure sweep: %s, scenario %s dense1000 — simulated time [s] vs task-failure rate (seed %d)\n",
			p.spec.Name, size, failureSeed)
		r.printf("  %5s %14s %11s %9s %7s %12s\n",
			"rate", "B-LL(1 att.)", "Opt+ReOpt", "#retries", "#strag", "recovery[s]")
		for _, rate := range rates {
			plan := fault.Plan{Seed: failureSeed, TaskFailureProb: rate,
				StragglerProb: rate / 2, StragglerFactor: 6}

			bllCol := "ABORT"
			bllRun, err := r.EndToEnd(p.spec, s, RunConfig{
				Res:     conf.NewResources(bll.CP, bll.MR, 1),
				Classes: p.classes,
				Faults:  plan,
				Policy:  mr.TaskPolicy{MaxAttempts: 1},
			})
			if err == nil {
				bllCol = fmtSecs(bllRun.SimSeconds)
			} else if !errors.Is(err, mr.ErrTaskFailed) {
				return err
			}

			optRun, err := r.EndToEnd(p.spec, s, RunConfig{
				Optimize: true, Adapt: true,
				Classes:   p.classes,
				Faults:    plan,
				Policy:    mr.DefaultTaskPolicy(),
				OptCharge: optCharge,
			})
			if errors.Is(err, mr.ErrTaskFailed) {
				// A task can exhaust even the default four attempts at a
				// high enough rate; the run is lost, the sweep goes on.
				r.printf("  %5.2f %14s %11s\n", rate, bllCol, "ABORT")
				continue
			}
			if err != nil {
				return err
			}
			r.printf("  %5.2f %14s %11.1f %9d %7d %12.1f\n",
				rate, bllCol, optRun.SimSeconds,
				optRun.TaskRetries, optRun.Stragglers, optRun.RecoverySeconds)
		}
		r.printf("\n")
	}
	return nil
}

// nodeFailureSweep measures graceful degradation: MLogreg under 0..N
// injected node failures, with the adapter re-optimizing for the shrunken
// cluster after each loss. A static B-LL run rides along for contrast —
// it survives (the simulated MR layer reschedules work) but keeps its
// stale configuration.
func (r *Runner) nodeFailureSweep() error {
	size := "L"
	maxLost := 3
	if r.Quick {
		maxLost = 2
	}
	bll := Baselines(r.CC)[3]
	spec := scripts.MLogreg()
	s := datagen.New(size, 1000, 1.0)
	r.printf("Node-failure recovery: %s, scenario %s dense1000 — node failures every 30s (seed %d)\n",
		spec.Name, size, failureSeed)
	r.printf("  %6s %9s %9s %8s %11s\n", "#lost", "B-LL", "Opt+ReOpt", "#reopts", "final-nodes")
	for lost := 0; lost <= maxLost; lost++ {
		var failures []fault.NodeFailure
		for i := 0; i < lost; i++ {
			failures = append(failures, fault.NodeFailure{Node: i, At: 30 * float64(i+1)})
		}
		plan := fault.Plan{Seed: failureSeed, NodeFailures: failures}

		bllRun, err := r.EndToEnd(spec, s, RunConfig{
			Res:     conf.NewResources(bll.CP, bll.MR, 1),
			Classes: 20,
			Faults:  plan,
		})
		bllCol := "ABORT"
		if err == nil {
			bllCol = fmtSecs(bllRun.SimSeconds)
		} else if !errors.Is(err, rt.ErrClusterLost) {
			return err
		}

		optRun, err := r.EndToEnd(spec, s, RunConfig{
			Optimize: true, Adapt: true,
			Classes:   20,
			Faults:    plan,
			OptCharge: optCharge,
		})
		optCol := "ABORT"
		reopts := 0
		finalNodes := r.CC.Nodes
		if err == nil {
			optCol = fmtSecs(optRun.SimSeconds)
			reopts = optRun.ContainerLossReopts
			finalNodes = r.CC.Nodes - optRun.NodeFailures
		} else if !errors.Is(err, rt.ErrClusterLost) {
			return err
		}
		r.printf("  %6d %9s %9s %8d %11d\n", lost, bllCol, optCol, reopts, finalNodes)
	}
	r.printf("\n")
	return nil
}
