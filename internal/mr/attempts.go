package mr

import (
	"errors"
	"fmt"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/obs"
	"elasticml/internal/perf"
)

// ErrTaskFailed aborts a job whose task exhausted its attempts — the MR
// framework then fails the job and the application sees a hard error.
var ErrTaskFailed = errors.New("mr: task failed all attempts")

// TaskPolicy configures per-task failure handling, mirroring Hadoop's
// mapreduce.map.maxattempts and speculative-execution switches.
type TaskPolicy struct {
	// MaxAttempts bounds the attempts per task; 1 disables retry (the
	// first injected failure aborts the job), values < 1 select the
	// default of 4.
	MaxAttempts int
	// Speculative launches backup attempts for stragglers, capping their
	// effective slowdown at SpeculativeCap.
	Speculative bool
}

// SpeculativeCap is the residual slowdown of a speculated straggler: the
// backup still re-runs part of the work, so the cap stays > 1.
const SpeculativeCap = 1.5

// DefaultTaskPolicy matches Hadoop's defaults: 4 attempts per task,
// speculative execution on.
func DefaultTaskPolicy() TaskPolicy {
	return TaskPolicy{MaxAttempts: 4, Speculative: true}
}

// Normalized fills zero values with defaults.
func (p TaskPolicy) Normalized() TaskPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	return p
}

// EffectiveSlowdown returns the slowdown a straggling task (or every task
// of a straggling node) actually experiences, and whether speculative
// backups softened it. With speculation on, backups cap the factor at
// SpeculativeCap. This is the single place the speculation arithmetic
// lives; the per-attempt model below and the workload service's slow-node
// handling both consult it so node-level stragglers and task-level
// stragglers degrade identically.
func EffectiveSlowdown(factor float64, speculative bool) (float64, bool) {
	if factor < 1 {
		return 1, false
	}
	if speculative && factor > SpeculativeCap {
		return SpeculativeCap, true
	}
	return factor, false
}

// TaskReport summarizes the per-task fault activity of one job.
type TaskReport struct {
	// Tasks is the number of tasks sampled (maps plus reducers).
	Tasks int
	// Retries counts failed attempts recovered by re-execution.
	Retries int
	// Stragglers counts tasks that straggled.
	Stragglers int
	// Speculated counts stragglers rescued by speculative backups.
	Speculated int
}

// Any reports whether the job saw any injected fault.
func (r TaskReport) Any() bool { return r.Retries > 0 || r.Stragglers > 0 }

// EstimateTimeUnderFaultsTraced layers a per-task attempt model on the
// job's phase breakdown t, charged at map-phase parallelism par (what
// EstimateTimeAt returned), and samples it against the injector: every task
// attempt may fail (re-executed up to pol.MaxAttempts, each retry adding
// its attempt work and a share of task-launch latency) or straggle
// (extending its wave by the straggler factor, softened to
// SpeculativeCap when speculative backups run). The added wall-clock
// time lands in the breakdown's Recovery component. A task exhausting its
// attempts fails the job with an error wrapping ErrTaskFailed.
//
// The model charges retried attempt work at the job's effective
// parallelism (retries fill free slots of later waves) but straggler
// tails serially (a straggler gates its wave's completion) — the same
// first-order approximation Hadoop's own speculation heuristics assume.
//
// With a tracer, it records per-task-attempt events on the cluster layer:
// one instant event per injected task failure or straggler, stamped at the
// job's simulated start time `at` and flagged with the attempt count, the
// slowdown factor, and whether a speculative backup rescued the straggler.
func EstimateTimeUnderFaultsTraced(cc conf.Cluster, spec JobSpec,
	par Parallelism, t TimeBreakdown, inj *fault.Injector, pol TaskPolicy,
	tr *obs.Tracer, at float64) (TimeBreakdown, TaskReport, error) {

	rep := TaskReport{}
	if inj == nil || !inj.TaskFaultsEnabled() {
		return t, rep, nil
	}
	pol = pol.Normalized()

	// Single-attempt latency of one map / one reduce task: phase times are
	// wall-clock across the whole phase, so one task's work is the phase
	// work (time x parallelism) split across tasks.
	mapTasks := spec.NumMaps
	if mapTasks < 1 {
		mapTasks = 1
	}
	perMap := (t.MapRead + t.Broadcast + t.MapCompute + t.MapWrite) *
		float64(par.Effective) / float64(mapTasks)
	redTasks := 0
	perRed := 0.0
	if !spec.MapOnly() {
		redTasks = spec.NumReducers
		if redTasks < 1 {
			redTasks = 1
		}
		redDop := redTasks
		if max := cc.TotalCores(); redDop > max {
			redDop = max
		}
		perRed = (t.Shuffle + t.ReduceCompute + t.ReduceWrite) *
			float64(redDop) / float64(redTasks)
	}

	traced := tr.SpansEnabled()
	var retriedWork, stragglerTail float64
	sample := func(n int, perTask float64, kind string) error {
		for i := 0; i < n; i++ {
			rep.Tasks++
			attempts := 1
			for inj.TaskFails() {
				if attempts >= pol.MaxAttempts {
					if traced {
						tr.Complete(obs.LayerCluster, "task.attempt-failed", at, 0,
							obs.A("job", spec.Name), obs.A("kind", kind), obs.A("task", i),
							obs.A("attempts", attempts), obs.A("fatal", true))
					}
					return fmt.Errorf("%s %s task %d: %d attempts: %w",
						spec.Name, kind, i, attempts, ErrTaskFailed)
				}
				attempts++
				rep.Retries++
				retriedWork += perTask
				if traced {
					tr.Complete(obs.LayerCluster, "task.attempt-failed", at, 0,
						obs.A("job", spec.Name), obs.A("kind", kind), obs.A("task", i),
						obs.A("attempts", attempts), obs.A("fatal", false))
				}
			}
			if factor, ok := inj.Straggles(); ok {
				rep.Stragglers++
				factor, speculated := EffectiveSlowdown(factor, pol.Speculative)
				if speculated {
					rep.Speculated++
				}
				stragglerTail += perTask * (factor - 1)
				if traced {
					tr.Complete(obs.LayerCluster, "task.straggler", at, perTask*(factor-1),
						obs.A("job", spec.Name), obs.A("kind", kind), obs.A("task", i),
						obs.A("factor", factor), obs.A("speculated", speculated))
				}
			}
		}
		return nil
	}
	if err := sample(mapTasks, perMap, "map"); err != nil {
		return t, rep, err
	}
	if err := sample(redTasks, perRed, "reduce"); err != nil {
		return t, rep, err
	}

	if rep.Any() {
		dop := par.Effective
		if dop < 1 {
			dop = 1
		}
		t.Recovery = retriedWork/float64(dop) + stragglerTail
		if rep.Retries > 0 {
			waves := (rep.Retries + par.Scheduled - 1) / par.Scheduled
			t.Recovery += perf.TaskLatency * float64(waves)
		}
		if rep.Speculated > 0 {
			// One extra launch wave for the speculative backups.
			t.Recovery += perf.TaskLatency
		}
	}
	return t, rep, nil
}
