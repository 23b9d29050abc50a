// Package workload composes the repo's ingredients — the per-program
// resource optimizer (§3), runtime re-optimization on cluster change (§5),
// the simulated YARN ResourceManager, and the deterministic observability
// subsystem — into a multi-tenant elastic job service: N DML programs with
// staggered arrival times contend for one simulated cluster, hold one or
// more containers each, and are re-planned whenever what they hold or what
// the cluster offers changes.
//
// The service is a discrete-event simulation driven entirely by simulated
// time, so a workload is a pure function of its inputs: the same job list,
// cluster, and options produce byte-identical reports. The service steps
// on one goroutine; only Prepare, and batch Run's prefetch workers, run
// beside it, and neither takes a decision.
//
// The event loop (service.go) delivers arrivals, departures, booked
// resizes, retries, chaos, and ticks; these only mutate cluster and job
// state. Every decision is then taken by settle, once per event batch, in
// a fixed order: the §5 re-optimization pass over the running jobs, queue
// admission, and the scheduling policy's reconcile of desired against
// allocated widths. The mechanisms those decisions use each exist once
// (lifecycle.go, elastic.go):
//
//   - plan: plan cache lookup, optimizer, cache insert —
//     for one job under the live cluster view, a free-chunk-clamped view
//     (degraded admission) or a width-clamped view (resize, §5 pass). It
//     keys on the job's retained identity (source, params, input
//     metadata), which identify reads off the spec and the staged inputs
//     without compiling; a program is compiled only for a miss. A live
//     frontend may run identify, the key, and on a miss the compile and a
//     cold search ahead of time on its own goroutine (Prepare), and batch
//     Run does the same for its next jobs on a worker pool; plan then
//     commits that answer if its miss is under the same key.
//   - run: the simulated run of a planned job — taken off the plan-cache
//     entry the plan came from when a sim-mode job planned from it was
//     simulated before, else compiled, simulated and (sim mode) kept
//     there. Value-mode jobs execute real matrices and always run.
//   - start: install a plan and its run on a job that holds its
//     containers. Admission is a start from width 0; a resize is a start
//     at the new width.
//   - reschedule: schedule a job's departure, invalidating the previous
//     one; stop is the same invalidation for a job that leaves the cluster.
//   - snap: commit progress at the last completed block or batch boundary
//     and book the partial work beyond it as WastedWork — on container
//     loss and on width change alike.
//   - terminate: enter a terminal state (done, failed, shed, canceled, …).
//   - reconcile: ask the policy value (FIFO, fair-share, regret — built
//     once in New) what width each running job should hold and book the
//     difference at the job's next resize point.
//
// A shared plan cache (opt.Cache) memoizes grid searches — and, on the
// same entries, the simulated runs of the plans they chose — across
// tenants: a repeated program over the same inputs under the same cluster
// view skips the compile, the optimization and the simulation, with results
// byte-identical to doing all three (the continuous invariants re-derive
// every kept run). Chaos (fault.ChaosPlan), the recovery
// policy (checkpoint or naive restart, retry budget, backoff) and the
// admission circuit breaker are layered on the same loop.
package workload

import (
	"fmt"
	"math"

	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
)

// JobSpec is one tenant's submission: an ML program plus its arrival time
// in simulated seconds.
//
// Two kinds of jobs are supported. Scenario jobs (Script + Scenario) run
// the paper's evaluation programs over descriptor inputs on the execution
// simulator. Custom jobs (Source + Setup) run arbitrary DML with real
// payloads in value mode, capturing written outputs and print streams —
// the differential-fuzzing entry point.
type JobSpec struct {
	// Tenant names the submitting tenant in reports and traces.
	Tenant string
	// Script + Scenario describe a scenario job (used when Source == "").
	Script   scripts.Spec
	Scenario datagen.Scenario
	// Arrival is the submission time in simulated seconds.
	Arrival float64
	// Source + Params + Setup describe a custom value-mode job. Setup must
	// be deterministic; it stages input matrices on a fresh file system.
	Source string
	Params map[string]interface{}
	Setup  func(fs *hdfs.FS)
	// Elastic declares the job's malleability bounds. The zero value
	// normalizes to a rigid single-container job, today's behavior.
	Elastic ElasticSpec

	// prep is what Service.Prepare worked out for the spec off the
	// sequencer, or batch Run's window for the job off the loop; the
	// job's first placement takes it over.
	prep *identity
}

// name returns the program name for reports.
func (j JobSpec) name() string {
	if j.Source != "" {
		return "custom"
	}
	return j.Script.Name
}

// The service's fixed charges and model constants, in simulated seconds
// unless noted. They are properties of the paper's model, not settings a
// run varies.
const (
	// gridPoints is the optimizer's base grid resolution (the service
	// favours responsiveness over exhaustive grids).
	gridPoints = 7
	// optCharge is charged for a cold optimization at admission, the order
	// of Table 3's optimization times; a plan-cache hit charges hitCharge
	// instead, so caching shows up directly in tenant latency.
	optCharge float64 = 5
	hitCharge float64 = 0.05
	// reoptCharge is charged to a running job when a service-level
	// re-optimization actually changes its configuration (checks that keep
	// the configuration are free — they are cache hits).
	reoptCharge float64 = 1
	// requeueCharge is charged when a naive restart re-admits a failure
	// victim from scratch (full state restore, paper §4.1); a checkpoint
	// restart charges checkpointCharge to restore from its last checkpoint.
	requeueCharge    float64 = 2
	checkpointCharge float64 = 1
	// simTableCols is the label cardinality for table() in sim mode.
	simTableCols = 2
)

// Options configure the service.
type Options struct {
	// CacheEntries bounds the shared plan cache: it holds at most this
	// many entries in all, evicting the least recently used. 0 selects
	// 1,024 (opt.DefaultCacheEntries); negative disables caching.
	CacheEntries int `json:"cache_entries"`
	// Chaos injects node failures and correlated failure regimes:
	// rack-scoped group failures (a permanent single-node loss is a
	// one-node group), transient flaps, straggler nodes, and seeded
	// failure storms. All expansion is deterministic.
	Chaos fault.ChaosPlan `json:"chaos"`
	// Recovery governs checkpoint/restart and the per-job retry budget for
	// failure victims. The zero value normalizes to checkpoint/restart
	// with 3 retries.
	Recovery RecoveryPolicy `json:"recovery"`
	// Breaker configures the circuit-breaker admission guard (zero value:
	// disabled).
	Breaker BreakerPolicy `json:"breaker"`
	// Policy selects the scheduling policy that decides admission widths and
	// mid-run grow/shrink of malleable jobs. The zero value is PolicyFIFO:
	// desired-width admission, head-of-queue blocking, no resizes — exactly
	// the pre-elasticity behavior.
	Policy Policy `json:"policy"`
	// Elastic tunes the malleability machinery: the periodic decision tick.
	Elastic ElasticOptions `json:"elastic"`
	// TaskPolicy governs straggler speculation. The zero value, and so
	// DefaultOptions, has speculation off; a run description is decoded
	// over speculation on (baseRunSpec).
	TaskPolicy TaskPolicy `json:"task_policy"`
	// Trace, when non-nil, receives workload-layer spans (tenant queue and
	// run spans, re-optimization and failure events) stamped with the
	// service's simulated clock, plus workload.* metrics. All events are
	// emitted by the event loop, so traces are deterministic.
	Trace *obs.Tracer `json:"-"`
}

// TaskPolicy is the service's straggler policy.
type TaskPolicy struct {
	// Speculative caps a slowed node's effective slowdown at
	// mr.SpeculativeCap, as speculative backups cap a straggling task's.
	Speculative bool `json:"speculative"`
}

// DefaultOptions returns the service defaults.
func DefaultOptions() Options {
	return Options{}
}

// normalized fills zero-valued fields with defaults.
func (o Options) normalized() Options {
	o.Recovery = o.Recovery.normalized()
	return o
}

// validate rejects degenerate job lists before the event loop starts.
func validate(jobs []JobSpec, nodes int, chaos fault.ChaosPlan) error {
	if err := chaos.Validate(nodes); err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("workload: empty job list")
	}
	for i, j := range jobs {
		if err := j.check(); err != nil {
			return fmt.Errorf("workload: job %d (%s): %w", i, j.Tenant, err)
		}
	}
	return nil
}

// check rejects a submission the service cannot run: one with neither a
// script nor a source, a contradictory elasticity spec, or an arrival time
// the event loop cannot order — a negative one, and NaN or ±Inf, which would
// reach the report as NaN or +Inf times that JSON cannot encode.
func (j JobSpec) check() error {
	switch {
	case j.Source == "" && j.Script.Source == "":
		return fmt.Errorf("neither a script nor a source")
	case math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0):
		return fmt.Errorf("non-finite arrival %g", j.Arrival)
	case j.Arrival < 0:
		return fmt.Errorf("negative arrival %g", j.Arrival)
	}
	return j.Elastic.validate()
}
