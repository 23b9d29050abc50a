// Command benchmark measures the decision path of this repository end to
// end and layer by layer: four workloads (opt_sweep, serve_hot, serve_cold,
// batch_churn), each run untraced for the end-to-end metrics and traced
// for the per-layer metrics. See README.md in this directory.
//
//	go run ./benchmark -seed 1                         # everything, as one document
//	go run ./benchmark -workload serve_cold -trace 1   # one traced run
//	go run ./benchmark -selfcheck                      # then the untraced runs again, compared
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
}

// result is what one run of one workload reports.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]float64     `json:"metrics"`
	Notes     map[string]interface{} `json:"notes,omitempty"`

	spans []span
}

func newResult(workload string, cfg runConfig) *result {
	return &result{Workload: workload, Trace: cfg.Trace, Metrics: map[string]float64{}, Notes: map[string]interface{}{}}
}

// fail counts one failed op and keeps the first few reasons.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// failAll marks every op of the run failed: a whole-run check did not hold.
func (r *result) failAll(err error) {
	r.Failed = r.Attempted
	r.Errors = append([]string{err.Error()}, r.Errors...)
}

func (r *result) merge(m map[string]float64) {
	for k, v := range m {
		r.Metrics[k] = v
	}
}

// endToEnd records the end-to-end metrics of an untraced run, but for
// live_heap_mb, which a runner reads while what the run retains is still
// reachable. setups holds the set-up time of every lap, central the op
// latencies op_p50_ms is the median of, and all every op latency measured.
func (r *result) endToEnd(setups []float64, opsPerS float64, central, all []time.Duration, tailCeiling float64, md memDelta) {
	r.Metrics["setup_s"] = median(setups)
	r.Metrics["ops_per_s"] = opsPerS
	r.Metrics["op_p50_ms"] = summarize(central, tailCeiling).P50Ms
	r.opTail(all, tailCeiling)
	r.procMetrics(md, len(all))
	r.Notes["laps"] = len(setups)
}

// opTail records the tail of the per-op wall latencies: the highest
// percentile, up to the ceiling, with ten samples beyond it.
func (r *result) opTail(lat []time.Duration, tailCeiling float64) {
	l := summarize(lat, tailCeiling)
	r.Metrics["op_tail_ms"] = l.TailMs
	r.Notes["op_latency_pooled"] = l
}

// procMetrics records what the process as a whole spent per op.
func (r *result) procMetrics(md memDelta, ops int) {
	n := float64(max(ops, 1))
	r.Metrics["proc.mallocs_per_op"] = float64(md.Mallocs) / n
	r.Metrics["proc.alloc_bytes_per_op"] = float64(md.AllocBytes) / n
	r.Metrics["proc.gc_cpu_frac"] = md.GCCPUFrac
	r.Metrics["proc.gc_pause_total_ms"] = float64(md.GCPauseNs) / 1e6
	r.Metrics["proc.heap_sys_mb"] = md.HeapSysMB
}

// traceMetrics records how much of the traced wall time the spans under
// the serial roots account for, and what tracing cost.
func (r *result) traceMetrics(spans []span, roots map[string]bool, wall time.Duration, tracedRate, untracedRate float64) {
	byName, unattributed := layerTimes(spans, roots)
	var covered int64
	shares := map[string]float64{}
	for name, ns := range byName {
		covered += ns
		shares[name] = float64(ns) / float64(wall.Nanoseconds())
	}
	shares["(unattributed)"] = float64(unattributed) / float64(wall.Nanoseconds())
	r.Metrics["trace.coverage"] = float64(covered) / float64(wall.Nanoseconds())
	r.Metrics["trace.overhead_frac"] = 1 - tracedRate/untracedRate
	r.Notes["self_time_shares"] = shares
}

// stageMetrics records the per-call medians of the pipeline stage spans
// and returns the self time, in microseconds, of all spans under the bare
// pipeline's roots.
func (r *result) stageMetrics(spans []span) float64 {
	for metric, name := range map[string]string{
		"dml.parse_us": "dml.parse", "hop.compile_us": "hop.compile",
		"opt.optimize_us": "opt.optimize", "lop.select_us": "lop.select",
	} {
		r.Metrics[metric] = medianUs(spans, name)
	}
	stages, _ := layerTimes(spans, map[string]bool{"pipeline": true})
	var ns int64
	for _, v := range stages {
		ns += v
	}
	return float64(ns) / 1e3
}

// countMetrics records the work counters of the bare pipeline.
func (r *result) countMetrics(c pipelineCounts) {
	r.Metrics["opt.costings"] = float64(c.costings)
	r.Metrics["opt.block_compilations"] = float64(c.blockComps)
	r.Metrics["lop.mr_jobs"] = float64(c.mrJobsPlan)
	r.Metrics["rt.mr_jobs_executed"] = float64(c.mrJobsRun)
}

// lapSeconds is about how long one lap of any workload took when the
// benchmark was written. A run repeats its lap, the same seeded ops after
// a set-up of their own, once per lapSeconds asked for and at least twice:
// setup_s is the median over the laps, and an op that ran once per lap has
// that many latencies to choose from.
const lapSeconds = 4.0

// defaultSeconds is the run length BENCHMARK.json asks for.
const defaultSeconds = 16

func lapCount(seconds float64) int { return max(2, int(math.Round(seconds/lapSeconds))) }

var runners = map[string]func(runConfig) (*result, error){
	"opt_sweep":   runOptSweep,
	"serve_hot":   func(c runConfig) (*result, error) { return runServe("serve_hot", c) },
	"serve_cold":  func(c runConfig) (*result, error) { return runServe("serve_cold", c) },
	"batch_churn": runChurn,
}

// runOne runs one workload once and settles its verdict.
func runOne(name string, cfg runConfig) (*result, error) {
	res, err := runners[name](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// contractLine is the one-line summary of a run: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func contractLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !res.Trace {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", res.Workload, d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(map[string]interface{}{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b), err
}

// environment records the machine and the inputs a document came from.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// document is everything one invocation measured.
type document struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

// runAll makes the runs asked for: the named workloads, untraced and
// traced as asked. An invocation that makes one run makes it here.
// Otherwise each is made by a child process running this program for that
// one run, as BENCHMARK.json's command does, so that no run's heap,
// collector or caches start from what the run before left behind; the
// child of a traced run is handed the spans file to write.
func runAll(names []string, traces []bool, cfg runConfig, inProcess bool, spans string) (*document, error) {
	doc := &document{Env: environment{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: gitHead(), Seed: cfg.Seed, Seconds: cfg.Seconds,
	}}
	for _, name := range names {
		for _, tr := range traces {
			cfg.Trace = tr
			var res *result
			var err error
			if inProcess {
				res, err = runOne(name, cfg)
			} else {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%v ...\n", name, tr)
				res, err = runChild(name, cfg, spans)
			}
			if err != nil {
				return nil, err
			}
			doc.Runs = append(doc.Runs, res)
		}
	}
	return doc, nil
}

// runChild makes one run in a process of its own and reads the run back
// from the document the child prints.
func runChild(name string, cfg runConfig, spans string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds)}
	switch {
	case !cfg.Trace:
		args = append(args, "-trace", "0")
	case spans == "":
		args = append(args, "-trace", "1")
	default:
		args = append(args, "-trace", "1", "-spans", spans)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s in a child process: %w", name, err)
	}
	var doc document
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&doc); err != nil || len(doc.Runs) != 1 {
		return nil, fmt.Errorf("%s in a child process: no document of one run (%v)", name, err)
	}
	return doc.Runs[0], nil
}

func (d *document) write(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// untraced returns the untraced runs of a document, in run order.
func (d *document) untraced() []*result {
	var runs []*result
	for _, r := range d.Runs {
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	return runs
}

// selfcheck compares the end-to-end metrics of the untraced runs of two
// documents made back to back, each against its bound, and reports
// whether all held.
func selfcheck(a, b *document) bool {
	ok := true
	fmt.Printf("%-12s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "")
	second := b.untraced()
	for i, ra := range a.untraced() {
		rb := second[i]
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-12s failed ops: first %d/%d, second %d/%d  FAIL\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			// Signed so that positive means the second run was worse.
			diff := (vb - va) / va
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := "PASS"
			if diff > d.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-12s %-14s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		workload  = flag.String("workload", "all", "one of opt_sweep, serve_hot, serve_cold, batch_churn, or all")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long each run measures: a lap per lapSeconds")
		trace     = flag.String("trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
		out       = flag.String("out", "", "write the JSON document to this file instead of standard output")
		spansOut  = flag.String("spans", "", "write the spans of the traced run of one -workload to this file as JSON")
		selfCheck = flag.Bool("selfcheck", false, "run everything twice and compare the end-to-end metrics against their bounds")
	)
	flag.Parse()
	if err := run(*seed, *workload, *seconds, *trace, *out, *spansOut, *selfCheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(seed int64, workload string, seconds float64, trace, out, spansOut string, selfCheck bool) error {
	names := workloadNames
	if workload != "all" {
		if runners[workload] == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		names = []string{workload}
	}
	var traces []bool
	switch trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive run length", seconds)
	}
	if selfCheck && trace == "1" {
		return fmt.Errorf("-selfcheck compares untraced runs; -trace 1 makes none")
	}
	if spansOut != "" && (len(names) > 1 || trace == "0") {
		return fmt.Errorf("-spans takes the spans of one traced run: name a -workload, and not -trace 0")
	}
	cfg := runConfig{Seed: seed, Seconds: seconds}
	inProcess := len(names)*len(traces) == 1 && !selfCheck

	doc, err := runAll(names, traces, cfg, inProcess, spansOut)
	if err != nil {
		return err
	}
	if err := doc.write(out); err != nil {
		return err
	}
	if last := doc.Runs[len(doc.Runs)-1]; spansOut != "" && last.spans != nil {
		if err := writeSpans(spansOut, map[string][]span{last.Workload: last.spans}); err != nil {
			return err
		}
	}
	if selfCheck {
		second, err := runAll(names, []bool{false}, cfg, false, "")
		if err != nil {
			return err
		}
		if !selfcheck(doc, second) {
			return fmt.Errorf("selfcheck: two runs of the same code differ by more than a bound")
		}
	}
	// The last line is the summary of the last run, in the shape a driver
	// that runs one workload at a time reads.
	line, err := contractLine(doc.Runs[len(doc.Runs)-1])
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}
