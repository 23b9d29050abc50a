package workload

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"elasticml/internal/matrix"
	"elasticml/internal/opt"
)

// TenantResult is one tenant's service outcome. All times are simulated
// seconds; the struct contains no wall-clock quantities, so marshalled
// reports of identical workloads are byte-identical.
type TenantResult struct {
	Tenant   string `json:"tenant"`
	Program  string `json:"program"`
	Scenario string `json:"scenario,omitempty"`

	Arrival  float64 `json:"arrival"`
	Admitted float64 `json:"admitted"`
	Finished float64 `json:"finished"`
	// QueueDelay is the wait from arrival to the FIRST admission (the
	// admission latency the circuit breaker bounds); Admitted tracks the
	// latest admission when failures forced re-admissions.
	// Latency = Finished - Arrival.
	QueueDelay float64 `json:"queue_delay"`
	Latency    float64 `json:"latency"`

	// Config is the final resource configuration (CP/maxMR).
	Config string `json:"config"`
	// Degraded records an admission under a free-slice-clamped cluster.
	Degraded bool `json:"degraded,omitempty"`
	// CacheHit records whether admission skipped the grid search.
	CacheHit bool `json:"cache_hit"`
	// Reopts counts mid-run configuration changes applied to this job.
	Reopts int `json:"reopts,omitempty"`
	// Requeues counts re-admissions after the job's AM container died.
	Requeues int `json:"requeues,omitempty"`
	// SlowEpisodes counts slow-node episodes that stretched this job.
	SlowEpisodes int `json:"slow_episodes,omitempty"`
	// WastedWork is the simulated work (seconds) discarded by container
	// losses — progress past the last checkpoint that must be re-done.
	WastedWork float64 `json:"wasted_work,omitempty"`
	// BreakerDegraded records an admission forced onto the degraded
	// fallback by an open circuit breaker.
	BreakerDegraded bool `json:"breaker_degraded,omitempty"`
	// FailedPermanently marks a tenant whose retry budget ran out.
	FailedPermanently bool `json:"failed_permanently,omitempty"`
	// Shed marks a tenant rejected by the open circuit breaker.
	Shed bool `json:"shed,omitempty"`
	// Canceled marks a tenant terminated on client request.
	Canceled bool `json:"canceled,omitempty"`
	// Served is false for tenants the shrunken cluster could never admit.
	Served bool `json:"served"`

	// Width is the number of containers the job last held (1 for rigid
	// jobs); MinWidth is the narrowest width it ever ran at — never below
	// the spec's MinContainers.
	Width    int `json:"width,omitempty"`
	MinWidth int `json:"min_width,omitempty"`
	// Grows / Shrinks count applied mid-run width changes.
	Grows   int `json:"grows,omitempty"`
	Shrinks int `json:"shrinks,omitempty"`
	// Narrowed marks an admission below the policy's target width: the job
	// voluntarily traded width for queue priority.
	Narrowed bool `json:"narrowed,omitempty"`

	// Error is the deterministic message of the terminal error, if any.
	Error string `json:"error,omitempty"`
	// Err is the typed terminal error for errors.Is/errors.As; it is not
	// part of the JSON report (Error carries the message).
	Err error `json:"-"`

	// OutputHash fingerprints the written outputs and print stream.
	OutputHash string `json:"output_hash,omitempty"`

	// Outputs and Prints hold the actual results of value-mode jobs for
	// differential comparison; they are not part of the JSON report.
	Outputs map[string]*matrix.Matrix `json:"-"`
	Prints  string                    `json:"-"`
}

// Report aggregates one workload run.
type Report struct {
	Tenants []TenantResult `json:"tenants"`

	// Makespan is the time the last tenant left the system.
	Makespan float64 `json:"makespan"`
	// P50Latency / P95Latency summarize served-tenant latencies.
	P50Latency float64 `json:"p50_latency"`
	P95Latency float64 `json:"p95_latency"`
	// MeanQueueDelay averages served-tenant queueing delays.
	MeanQueueDelay float64 `json:"mean_queue_delay"`
	// Utilization is the time-weighted fraction of live cluster memory
	// held by AM containers over the makespan.
	Utilization float64 `json:"utilization"`
	// MaxConcurrent is the peak number of simultaneously running tenants.
	MaxConcurrent int `json:"max_concurrent"`

	// Cache reports shared plan cache effectiveness.
	Cache opt.CacheStats `json:"cache"`
	// ReoptChecks counts re-optimization evaluations of running jobs on
	// departures and node failures; ReoptChanges counts the subset that
	// changed a configuration mid-run.
	ReoptChecks     int `json:"reopt_checks"`
	ReoptChanges    int `json:"reopt_changes"`
	DepartureReopts int `json:"departure_reopts"`
	FailureReopts   int `json:"failure_reopts"`
	RestoreReopts   int `json:"restore_reopts,omitempty"`
	// NodeFailures / Requeues / Unserved count failure handling activity.
	NodeFailures int `json:"node_failures"`
	Requeues     int `json:"requeues"`
	Unserved     int `json:"unserved"`
	// NodeRestores counts nodes that returned after transient losses;
	// SlowNodeEvents counts slow-node episode starts and ends.
	NodeRestores   int `json:"node_restores,omitempty"`
	SlowNodeEvents int `json:"slow_node_events,omitempty"`
	// FailedPermanently counts tenants whose retry budget ran out; Shed
	// counts tenants rejected by the open circuit breaker; Canceled counts
	// tenants terminated on client request.
	FailedPermanently int `json:"failed_permanently,omitempty"`
	Shed              int `json:"shed,omitempty"`
	Canceled          int `json:"canceled,omitempty"`
	// WastedWork totals the simulated seconds of discarded progress across
	// all container losses (work past the last checkpoint, re-done later).
	WastedWork float64 `json:"wasted_work,omitempty"`
	// P95QueueDelay summarizes served-tenant admission delays — the
	// latency the circuit breaker is meant to bound under chaos.
	P95QueueDelay float64 `json:"p95_queue_delay"`
	// BreakerTrips counts open transitions of the admission breaker;
	// BreakerDegraded counts admissions it forced onto the fallback plan.
	BreakerTrips    int `json:"breaker_trips,omitempty"`
	BreakerDegraded int `json:"breaker_degraded,omitempty"`
	// Grows / Shrinks count applied mid-run width changes across all jobs;
	// VoluntaryShrinks counts admissions that narrowed below the policy
	// target to enter a full cluster.
	Grows            int `json:"grows,omitempty"`
	Shrinks          int `json:"shrinks,omitempty"`
	VoluntaryShrinks int `json:"voluntary_shrinks,omitempty"`
}

// finalize computes the aggregate fields from per-tenant results; the
// event loop counts only what no row records.
func (r *Report) finalize(usedIntegral, capIntegral float64) {
	var latencies, delays []float64
	var queueSum float64
	served := 0
	for _, t := range r.Tenants {
		r.Requeues += t.Requeues
		r.Grows += t.Grows
		r.Shrinks += t.Shrinks
		r.ReoptChanges += t.Reopts
		// Terminal outcomes with their own counters (budget exhaustion,
		// breaker shedding, cancellation) are not "unserved": the service
		// made a decision, it did not run out of events.
		switch {
		case t.FailedPermanently:
			r.FailedPermanently++
		case t.Shed:
			r.Shed++
		case t.Canceled:
			r.Canceled++
		case !t.Served:
			r.Unserved++
		}
		if !t.Served {
			continue
		}
		served++
		latencies = append(latencies, t.Latency)
		delays = append(delays, t.QueueDelay)
		queueSum += t.QueueDelay
		if t.Finished > r.Makespan {
			r.Makespan = t.Finished
		}
	}
	r.P50Latency = percentile(latencies, 0.50)
	r.P95Latency = percentile(latencies, 0.95)
	r.P95QueueDelay = percentile(delays, 0.95)
	if served > 0 {
		r.MeanQueueDelay = queueSum / float64(served)
	}
	if capIntegral > 0 {
		r.Utilization = usedIntegral / capIntegral
	}
}

// percentile returns the q-quantile (nearest-rank) of the values.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// WriteJSON marshals the report with stable formatting.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteTable renders the per-tenant table plus the aggregate summary.
func (r *Report) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-12s %-9s %-12s %9s %9s %9s %9s  %-11s %s\n",
		"tenant", "program", "scenario", "arrive", "queued", "latency", "finish", "config", "flags"); err != nil {
		return err
	}
	for _, t := range r.Tenants {
		flags := ""
		if t.CacheHit {
			flags += "hit "
		}
		if t.Degraded {
			flags += "degraded "
		}
		if t.Reopts > 0 {
			flags += fmt.Sprintf("reopt:%d ", t.Reopts)
		}
		if t.BreakerDegraded {
			flags += "breaker "
		}
		if t.Requeues > 0 {
			flags += fmt.Sprintf("requeue:%d ", t.Requeues)
		}
		if t.SlowEpisodes > 0 {
			flags += fmt.Sprintf("slow:%d ", t.SlowEpisodes)
		}
		if t.Width > 1 {
			flags += fmt.Sprintf("w:%d ", t.Width)
		}
		if t.Grows > 0 {
			flags += fmt.Sprintf("grow:%d ", t.Grows)
		}
		if t.Shrinks > 0 {
			flags += fmt.Sprintf("shrink:%d ", t.Shrinks)
		}
		if t.Narrowed {
			flags += "narrowed "
		}
		if !t.Served {
			switch {
			case t.FailedPermanently:
				flags = "FAILED-PERM"
			case t.Shed:
				flags = "SHED"
			case t.Canceled:
				flags = "CANCELED"
			case t.Error != "":
				flags = "ERROR"
			default:
				flags = "UNSERVED"
			}
		}
		if _, err := fmt.Fprintf(w, "%-12s %-9s %-12s %9.1f %9.1f %9.1f %9.1f  %-11s %s\n",
			t.Tenant, t.Program, t.Scenario, t.Arrival, t.QueueDelay, t.Latency, t.Finished, t.Config, flags); err != nil {
			return err
		}
	}
	cs := r.Cache
	if _, err := fmt.Fprintf(w,
		"\nmakespan %.1fs | latency p50 %.1fs p95 %.1fs | mean queue %.1fs (p95 %.1fs) | utilization %.1f%% | peak tenants %d\n"+
			"plan cache: %d hits / %d misses (%.0f%% hit rate), %d evictions | reopts: %d checks, %d changes (%d departure, %d failure, %d restore) | %d node failures, %d requeues\n",
		r.Makespan, r.P50Latency, r.P95Latency, r.MeanQueueDelay, r.P95QueueDelay, 100*r.Utilization, r.MaxConcurrent,
		cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Evictions,
		r.ReoptChecks, r.ReoptChanges, r.DepartureReopts, r.FailureReopts, r.RestoreReopts, r.NodeFailures, r.Requeues); err != nil {
		return err
	}
	if r.Grows+r.Shrinks+r.VoluntaryShrinks > 0 {
		if _, err := fmt.Fprintf(w,
			"elastic: %d grows, %d shrinks, %d voluntary narrowed admissions\n",
			r.Grows, r.Shrinks, r.VoluntaryShrinks); err != nil {
			return err
		}
	}
	if r.NodeRestores+r.SlowNodeEvents+r.FailedPermanently+r.Shed+r.BreakerTrips > 0 || r.WastedWork > 0 {
		if _, err := fmt.Fprintf(w,
			"chaos: %d node restores, %d slow-node events, %.1fs wasted work | %d failed permanently, %d shed | breaker: %d trips, %d degraded admissions\n",
			r.NodeRestores, r.SlowNodeEvents, r.WastedWork, r.FailedPermanently, r.Shed,
			r.BreakerTrips, r.BreakerDegraded); err != nil {
			return err
		}
	}
	return nil
}

// outputHash fingerprints a job's observable result: written output paths
// with dimensions and exact cell bits, plus the print stream. Descriptor
// outputs (sim mode) contribute metadata only.
func outputHash(paths []string, outputs map[string]*matrix.Matrix, dims map[string][3]int64, prints string) string {
	h := fnv.New64a()
	for _, p := range paths {
		fmt.Fprintf(h, "path:%s", p)
		if d, ok := dims[p]; ok {
			fmt.Fprintf(h, ":%dx%d:%d", d[0], d[1], d[2])
		}
		if m, ok := outputs[p]; ok && m != nil {
			for i := 0; i < m.Rows(); i++ {
				for j := 0; j < m.Cols(); j++ {
					fmt.Fprintf(h, ":%016x", math.Float64bits(m.At(i, j)))
				}
			}
		}
		fmt.Fprintf(h, "\n")
	}
	fmt.Fprintf(h, "prints:%s", prints)
	return fmt.Sprintf("%016x", h.Sum64())
}
