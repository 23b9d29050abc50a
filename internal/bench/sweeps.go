package bench

// The four service sweeps (experiments "workload", "chaos", "elastic",
// "minibatch"). None is a figure from the paper: they compose its
// per-program optimizer (§3) and cluster-change re-optimization (§5) into
// the multi-tenant serving scenario of internal/workload and argue the way
// the paper does, with tables of rows.
//
// A sweep is a table over run descriptions. Its traces are committed
// workload.RunSpec documents under scenarios/ — the same files
// `elastic-serve -scenario` loads — its tenant counts override
// generate.tenants, and its cells are Go values that set a few RunSpec
// fields (the policy; recovery x breaker; cache x node failure). runSweep
// is the one loop over tenants x traces x cells and the one artifact
// writer; everything is simulated time, so the printed rows and
// BENCH_<id>.json are byte-identical across runs and worker counts
// (testdata/ pins the full-mode copies).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"elasticml/internal/fault"
	"elasticml/internal/workload"
	"elasticml/scenarios"
)

// sweep describes one experiment; R is its row type as serialized into
// BENCH_<id>.json.
type sweep[R any] struct {
	id     string
	title  string // completed by the first trace's cluster and seed
	header string // the lines between the title and the rows
	traces []trace
	full   []int // tenant counts; quick runs the quick ones
	quick  []int
	cells  []cell
	// row summarizes one run: spec is the description the run executed,
	// after the tenant override and the cell. It returns the artifact row
	// and the printed line.
	row func(trace, cell string, spec *workload.RunSpec, rep *workload.Report) (R, string)
}

// trace names a run description by its path under scenarios/.
type trace struct{ name, file string }

// cell is one compared configuration: a name and the RunSpec fields it
// sets (nil runs the description as committed).
type cell struct {
	name string
	set  func(*workload.RunSpec)
}

// runSweep runs every tenants x trace x cell combination, prints the
// table and writes BENCH_<id>.json into the runner's ArtifactDir.
func runSweep[R any](r *Runner, sw sweep[R]) ([]R, error) {
	counts := sw.full
	if r.Quick {
		counts = sw.quick
	}
	first, err := loadScenario(sw.traces[0].file)
	if err != nil {
		return nil, err
	}
	r.printf("%s: %d-node cluster, %s/node, seed %d\n%s",
		sw.title, first.Cluster.Nodes, first.Cluster.MemPerNode, first.Generate.Seed, sw.header)

	var rows []R
	for _, n := range counts {
		for _, tr := range sw.traces {
			for _, c := range sw.cells {
				// A fresh decode per run: cells edit the description.
				spec, err := loadScenario(tr.file)
				if err != nil {
					return nil, err
				}
				spec.Generate.Tenants = n
				if c.set != nil {
					c.set(spec)
				}
				rep, err := runSpec(spec)
				if err != nil {
					return nil, fmt.Errorf("scenarios/%s, %d tenants, %s: %w", tr.file, n, c.name, err)
				}
				row, line := sw.row(tr.name, c.name, spec, rep)
				rows = append(rows, row)
				r.printf("%s\n", line)
			}
		}
	}
	r.printf("\n")

	path := filepath.Join(r.ArtifactDir, "BENCH_"+sw.id+".json")
	data, err := json.MarshalIndent(struct {
		Rows []R `json:"rows"`
	}{rows}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o666); err != nil {
		return nil, err
	}
	r.printf("wrote %s (%d rows)\n", path, len(rows))
	return rows, nil
}

// runSpec runs a description the way elastic-serve -scenario does.
func runSpec(spec *workload.RunSpec) (*workload.Report, error) {
	jobs, err := spec.JobSpecs()
	if err != nil {
		return nil, err
	}
	return workload.Run(spec.Cluster, jobs, spec.Options)
}

// loadScenario strictly decodes a committed run description; the sweeps
// vary generate.tenants, so it must draw its jobs from a generator.
func loadScenario(file string) (*workload.RunSpec, error) {
	f, err := scenarios.FS.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := workload.LoadRunSpec(f)
	if err != nil {
		return nil, fmt.Errorf("scenarios/%s: %w", file, err)
	}
	if spec.Generate == nil {
		return nil, fmt.Errorf("scenarios/%s: a sweep needs a generate section", file)
	}
	return spec, nil
}

// served counts the tenants that ran to completion.
func served(rep *workload.Report) int {
	n := 0
	for _, t := range rep.Tenants {
		if t.Served {
			n++
		}
	}
	return n
}

// WorkloadRow is one sweep configuration's summary, as serialized into
// BENCH_workload.json.
type WorkloadRow struct {
	Tenants      int     `json:"tenants"`
	CacheEntries int     `json:"cache_entries"` // -1 = caching disabled
	NodeFailure  bool    `json:"node_failure"`
	P50Latency   float64 `json:"p50_latency"`
	P95Latency   float64 `json:"p95_latency"`
	MeanQueue    float64 `json:"mean_queue_delay"`
	Makespan     float64 `json:"makespan"`
	HitRate      float64 `json:"cache_hit_rate"`
	Utilization  float64 `json:"utilization"`
	ReoptChanges int     `json:"reopt_changes"`
	Requeues     int     `json:"requeues"`
	Unserved     int     `json:"unserved"`
}

// The workload sweep's two switches: no plan cache, and node 1 lost at 25 s.
func cacheOff(s *workload.RunSpec)  { s.CacheEntries = -1 }
func loseNode1(s *workload.RunSpec) { s.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{1}, At: 25}} }

// workloadSweep: tenant latency, queueing delay, plan-cache hit rate and
// utilization on a deliberately tight cluster (admission contention is the
// point), with the shared plan cache on and off, with and without a mid-run
// node failure.
var workloadSweep = sweep[WorkloadRow]{
	id:    "workload",
	title: "Multi-tenant workload service",
	header: fmt.Sprintf("%8s %7s %9s %9s %9s %10s %9s %8s %7s %7s %9s\n",
		"tenants", "cache", "fail", "p50[s]", "p95[s]", "queue[s]", "mksp[s]", "hit%", "util%", "reopts", "requeues"),
	traces: []trace{{"uniform", "sweeps/workload.json"}},
	full:   []int{8, 16, 32},
	quick:  []int{8, 16},
	cells: []cell{
		{"shared", nil},
		{"shared+fail", loseNode1},
		{"off", cacheOff},
		{"off+fail", func(s *workload.RunSpec) { cacheOff(s); loseNode1(s) }},
	},
	row: func(_, _ string, spec *workload.RunSpec, rep *workload.Report) (WorkloadRow, string) {
		row := WorkloadRow{
			Tenants:      spec.Generate.Tenants,
			CacheEntries: spec.CacheEntries,
			NodeFailure:  len(spec.Chaos.Groups) > 0,
			P50Latency:   rep.P50Latency,
			P95Latency:   rep.P95Latency,
			MeanQueue:    rep.MeanQueueDelay,
			Makespan:     rep.Makespan,
			HitRate:      rep.Cache.HitRate(),
			Utilization:  rep.Utilization,
			ReoptChanges: rep.ReoptChanges,
			Requeues:     rep.Requeues,
			Unserved:     rep.Unserved,
		}
		cacheLabel, failLabel := "shared", "-"
		if row.CacheEntries < 0 {
			cacheLabel = "off"
		}
		if row.NodeFailure {
			g := spec.Chaos.Groups[0]
			failLabel = fmt.Sprintf("%d@%gs", g.Nodes[0], g.At)
		}
		return row, fmt.Sprintf("%8d %7s %9s %9.1f %9.1f %10.1f %9.1f %7.0f%% %6.0f%% %7d %7d",
			row.Tenants, cacheLabel, failLabel, row.P50Latency, row.P95Latency, row.MeanQueue,
			row.Makespan, 100*row.HitRate, 100*row.Utilization, row.ReoptChanges, row.Requeues)
	},
}

// ChaosRow is one (tenant count, policy) summary, as serialized into
// BENCH_chaos.json.
type ChaosRow struct {
	Tenants int    `json:"tenants"`
	Policy  string `json:"policy"`

	Served            int     `json:"served"`
	FailedPermanently int     `json:"failed_permanently"`
	Shed              int     `json:"shed"`
	Unserved          int     `json:"unserved"`
	TerminalFailRate  float64 `json:"terminal_failure_rate"`

	P95Latency    float64 `json:"p95_latency"`
	P95QueueDelay float64 `json:"p95_queue_delay"`
	Makespan      float64 `json:"makespan"`

	WastedWork   float64 `json:"wasted_work"`
	Requeues     int     `json:"requeues"`
	NodeFailures int     `json:"node_failures"`
	NodeRestores int     `json:"node_restores"`
	BreakerTrips int     `json:"breaker_trips"`
	Degraded     int     `json:"breaker_degraded"`
	Utilization  float64 `json:"utilization"`
}

// chaosSweep: the recovery policies over one identical correlated-failure
// schedule — all four chaos shapes at once, dense enough that long-running
// tenants are interrupted repeatedly, on four nodes so a group loss leaves
// survivors to fail over to. It measures the robustness trajectory the
// recovery engine exists for: terminal-failure rate, p95 tenant and
// admission latency, and wasted simulated work.
var chaosSweep = sweep[ChaosRow]{
	id:    "chaos",
	title: "Chaos recovery sweep",
	header: "chaos: 1 group loss, 2 flaps, 1 straggler node, 30-loss storm (all recovering)\n" +
		fmt.Sprintf("%8s %-16s %7s %7s %5s %8s %9s %10s %10s %7s %7s\n",
			"tenants", "policy", "served", "failed", "shed", "term%", "p95[s]", "p95adm[s]", "waste[s]", "requeue", "trips"),
	traces: []trace{{"chaos", "sweeps/chaos.json"}},
	full:   []int{16, 32},
	quick:  []int{16},
	cells: []cell{
		// Restart from scratch: unbounded progress loss.
		{"naive", func(s *workload.RunSpec) { s.Recovery.Kind = workload.RecoveryNaive }},
		// The description as committed: checkpoint/restart, bounded retries.
		{"checkpoint", nil},
		{"breaker-degrade", func(s *workload.RunSpec) { s.Breaker.Enabled = true }},
		{"breaker-shed", func(s *workload.RunSpec) { s.Breaker.Enabled, s.Breaker.Shed = true, true }},
	},
	row: func(_, cell string, spec *workload.RunSpec, rep *workload.Report) (ChaosRow, string) {
		n := spec.Generate.Tenants
		row := ChaosRow{
			Tenants:           n,
			Policy:            cell,
			Served:            served(rep),
			FailedPermanently: rep.FailedPermanently,
			Shed:              rep.Shed,
			Unserved:          rep.Unserved,
			TerminalFailRate:  float64(rep.FailedPermanently) / float64(n),
			P95Latency:        rep.P95Latency,
			P95QueueDelay:     rep.P95QueueDelay,
			Makespan:          rep.Makespan,
			WastedWork:        rep.WastedWork,
			Requeues:          rep.Requeues,
			NodeFailures:      rep.NodeFailures,
			NodeRestores:      rep.NodeRestores,
			BreakerTrips:      rep.BreakerTrips,
			Degraded:          rep.BreakerDegraded,
			Utilization:       rep.Utilization,
		}
		return row, fmt.Sprintf("%8d %-16s %7d %7d %5d %7.0f%% %9.1f %10.1f %10.1f %7d %7d",
			n, row.Policy, row.Served, row.FailedPermanently, row.Shed,
			100*row.TerminalFailRate, row.P95Latency, row.P95QueueDelay,
			row.WastedWork, row.Requeues, row.BreakerTrips)
	},
}

// ElasticRow is one policy/trace combination's summary, as serialized into
// BENCH_elastic.json and BENCH_minibatch.json.
type ElasticRow struct {
	Policy        string  `json:"policy"`
	Trace         string  `json:"trace"`
	Tenants       int     `json:"tenants"`
	Served        int     `json:"served"`
	P50Queue      float64 `json:"p50_queue_delay"`
	P95Queue      float64 `json:"p95_queue_delay"`
	P95Latency    float64 `json:"p95_latency"`
	Makespan      float64 `json:"makespan"`
	Utilization   float64 `json:"utilization"`
	WastedWork    float64 `json:"wasted_work"`
	Grows         int     `json:"grows"`
	Shrinks       int     `json:"shrinks"`
	VolShrinks    int     `json:"voluntary_shrinks"`
	MaxConcurrent int     `json:"max_concurrent"`
}

// policySweep is the shape the two scheduling-policy sweeps share: FIFO
// (rigid desired-width admission, head-of-queue blocking), fair-share
// (width proportional to active tenants) and regret-minimizing (narrow
// admission, bypass, grow by marginal speedup) on identical traces, on a
// cluster so small that admission width is the contended resource.
func policySweep(id, title string, traces ...trace) sweep[ElasticRow] {
	sw := sweep[ElasticRow]{
		id:    id,
		title: title,
		header: fmt.Sprintf("%-14s %8s %7s %9s %9s %9s %7s %8s %6s %7s %7s\n",
			"trace", "tenants", "policy", "q50[s]", "q95[s]", "p95[s]", "util%", "waste[s]", "grow", "shrink", "narrow"),
		traces: traces,
		full:   []int{12, 24},
		quick:  []int{12},
		row:    elasticRow,
	}
	for _, pol := range []workload.Policy{workload.PolicyFIFO, workload.PolicyFair, workload.PolicyRegret} {
		sw.cells = append(sw.cells, cell{pol.String(), func(s *workload.RunSpec) { s.Policy = pol }})
	}
	return sw
}

func elasticRow(trace, _ string, spec *workload.RunSpec, rep *workload.Report) (ElasticRow, string) {
	var delays []float64
	for _, t := range rep.Tenants {
		if t.Served {
			delays = append(delays, t.QueueDelay)
		}
	}
	row := ElasticRow{
		Policy:        spec.Policy.String(),
		Trace:         trace,
		Tenants:       spec.Generate.Tenants,
		Served:        len(delays),
		P50Queue:      quantile(delays, 0.50),
		P95Queue:      rep.P95QueueDelay,
		P95Latency:    rep.P95Latency,
		Makespan:      rep.Makespan,
		Utilization:   rep.Utilization,
		WastedWork:    rep.WastedWork,
		Grows:         rep.Grows,
		Shrinks:       rep.Shrinks,
		VolShrinks:    rep.VoluntaryShrinks,
		MaxConcurrent: rep.MaxConcurrent,
	}
	return row, fmt.Sprintf("%-14s %8d %7s %9.1f %9.1f %9.1f %6.0f%% %8.1f %6d %7d %7d",
		row.Trace, row.Tenants, row.Policy, row.P50Queue, row.P95Queue, row.P95Latency,
		100*row.Utilization, row.WastedWork, row.Grows, row.Shrinks, row.VolShrinks)
}

// quantile returns the nearest-rank q-quantile of vals, which it sorts.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := int(float64(len(vals))*q+0.999999) - 1
	return vals[min(max(idx, 0), len(vals)-1)]
}

// elasticSweep's headline trace is the skewed burst: tight arrival bursts
// where rigid FIFO head-blocks each burst at full desired width while the
// width-flexible policies admit narrow and grow in the gaps.
var elasticSweep = policySweep("elastic", "Malleable-job policy sweep",
	trace{"skewed-burst", "burst.json"})

// minibatchSweep runs the iterative epoch-structured family (MinibatchLR,
// MinibatchLinreg, MLP2) on two adversarial traces: nodes that transiently
// slow down mid-run (speculation off, so the scheduler alone answers the
// straggler), and a node flap that removes and restores capacity. Epoch
// boundaries are the elasticity points: the flexible policies grow between
// epochs and shrink mid-epoch snapping to the last completed batch.
var minibatchSweep = policySweep("minibatch", "Mini-batch epoch-elasticity sweep",
	trace{"straggler", "sweeps/minibatch_straggler.json"},
	trace{"corrfail", "sweeps/minibatch_corrfail.json"})

// experiment adapts a sweep to the Experiments table.
func experiment[R any](r *Runner, sw sweep[R]) func() error {
	return func() error { _, err := runSweep(r, sw); return err }
}
