// Command elastic-run executes an ML program end-to-end on the simulated
// cluster under a static or optimized resource configuration, optionally
// with runtime resource adaptation, and reports the simulated elapsed time
// and execution statistics.
//
// Usage:
//
//	elastic-run -program LinregCG -size M -cp 16GB -mr 2GB
//	elastic-run -program MLogreg -size M -classes 200 -optimize -adapt
//	elastic-run -program MLogreg -size L -optimize -adapt -task-fail 0.05 -node-fail 0@30,1@60
//	elastic-run -program MLogreg -size M -optimize -adapt -trace trace.json -metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/mr"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/yarn"
)

// tracedOptCharge is the fixed simulated time charged per runtime
// re-optimization when observability is on: charging measured wall-clock
// time (the adapter's default) would make traces differ across runs.
const tracedOptCharge = 0.1

func main() {
	var (
		program  = flag.String("program", "LinregCG", "ML program: LinregDS, LinregCG, L2SVM, MLogreg, GLM")
		size     = flag.String("size", "M", "scenario size: XS, S, M, L, XL")
		cols     = flag.Int64("cols", 1000, "feature count")
		sparsity = flag.Float64("sparsity", 1.0, "input sparsity")
		cpFlag   = flag.String("cp", "2GB", "CP max heap (e.g. 512MB, 8GB)")
		mrFlag   = flag.String("mr", "2GB", "MR task max heap")
		optimize = flag.Bool("optimize", false, "run initial resource optimization")
		doAdapt  = flag.Bool("adapt", false, "enable runtime resource adaptation")
		dop      = flag.Int("dop", 1, "CP cores: the cost model divides CP compute by them and parfor runs up to this many workers (1 = the paper's single-threaded CP)")
		classes  = flag.Int64("classes", 20, "label cardinality (table() output width)")
		verbose  = flag.Bool("v", false, "stream program print() output")
		explain  = flag.Bool("explain", false, "print the runtime plan before executing")

		// Observability.
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
		metrics  = flag.Bool("metrics", false, "print the metrics registry, span summary, and predicted-vs-simulated cost table")
		jsonOut  = flag.Bool("json", false, "print a machine-readable JSON run summary instead of text")

		// Fault injection (all sampling is seeded and deterministic).
		faultSeed   = flag.Int64("fault-seed", 42, "fault injection RNG seed")
		taskFail    = flag.Float64("task-fail", 0, "per-attempt MR task failure probability")
		straggle    = flag.Float64("straggle", 0, "per-task straggler probability")
		stragFactor = flag.Float64("straggle-factor", 6, "straggler slowdown factor")
		hdfsFail    = flag.Float64("hdfs-fail", 0, "transient HDFS read error probability")
		nodeFail    = flag.String("node-fail", "", "injected node failures, e.g. 0@30,1@60 (node@seconds)")
		maxAttempts = flag.Int("max-attempts", 0, "task attempts before job failure (0 = Hadoop default 4)")
	)
	flag.Parse()
	out := &obs.ErrWriter{W: os.Stdout}

	spec, ok := scripts.ByName(*program)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *program)
		os.Exit(2)
	}
	cc := conf.DefaultCluster()
	s, err := datagen.Parse(strings.ToUpper(*size), *cols, *sparsity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elastic-run:", err)
		os.Exit(2)
	}

	// The tracer records spans for -trace and -metrics; a bare -json still
	// gets the metrics registry (counters ride along in the summary).
	var tr *obs.Tracer
	if *traceOut != "" || *metrics || *jsonOut {
		tr = obs.New(*traceOut != "" || *metrics)
	}

	fs := hdfs.New()
	fs.SetTracer(tr)
	datagen.Describe(fs, s)

	fplan := fault.Plan{
		Seed:              *faultSeed,
		TaskFailureProb:   *taskFail,
		StragglerProb:     *straggle,
		StragglerFactor:   *stragFactor,
		HDFSReadErrorProb: *hdfsFail,
	}
	if *nodeFail != "" {
		for _, part := range strings.Split(*nodeFail, ",") {
			var node int
			var at float64
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d@%g", &node, &at); err != nil {
				fmt.Fprintf(os.Stderr, "elastic-run: bad -node-fail entry %q (want node@seconds)\n", part)
				os.Exit(2)
			}
			fplan.NodeFailures = append(fplan.NodeFailures, fault.NodeFailure{Node: node, At: at})
		}
	}
	var inj *fault.Injector
	if fplan.Enabled() {
		inj, err = fault.NewInjector(fplan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elastic-run:", err)
			os.Exit(2)
		}
	}

	psp := tr.Begin(obs.LayerCompile, "dml.parse", obs.A("program", spec.Name))
	prog, err := dml.Parse(spec.Source)
	psp.End()
	if err != nil {
		fatal(err)
	}
	comp := hop.NewCompiler(fs, spec.Params)
	comp.Trace = tr
	hp, err := comp.Compile(prog, spec.Source)
	if err != nil {
		fatal(err)
	}

	cp, err := conf.ParseBytes(*cpFlag)
	if err != nil {
		fatal(err)
	}
	mrH, err := conf.ParseBytes(*mrFlag)
	if err != nil {
		fatal(err)
	}
	res := conf.NewResources(cp, mrH, hp.NumLeaf).WithCores(*dop)
	var optSecs float64
	if *optimize {
		o := opt.New(cc)
		o.Trace = tr
		start := time.Now()
		result := o.Optimize(hp)
		optSecs = time.Since(start).Seconds()
		res = result.Res
		if res.CPCores < 1 {
			// The optimizer enumerated memory only; keep the requested CP
			// degree of parallelism.
			res = res.WithCores(*dop)
		}
		if !*jsonOut {
			fmt.Fprintf(out, "optimizer: R* = %s (estimated %.1fs, found in %v)\n",
				res.String(), result.Cost, result.Stats.OptTime)
		}
	}

	plan := lop.SelectTraced(hp, cc, res, tr)
	lop.RecordJobMetrics(tr.Metrics(), plan)
	if *explain {
		fmt.Fprint(out, lop.Explain(plan))
	}

	// Per-operator cost-model predictions for the validation table: a fresh
	// estimator walks the initial plan with a capture hook before execution.
	var predicted map[string]float64
	if *metrics {
		predicted = map[string]float64{}
		pe := cost.NewEstimator(cc)
		pe.Hook = func(label string, seconds float64) { predicted[label] += seconds }
		pe.ProgramCost(plan)
	}

	ip := rt.New(rt.ModeSim, fs, cc, res)
	ip.Compiler = comp
	ip.SimTableCols = *classes
	ip.Trace = tr
	if *verbose {
		ip.Out = os.Stdout
	}
	// With a tracer attached, the YARN RM backs the AM container so
	// allocation/release/kill events appear on the cluster track.
	var rm *yarn.ResourceManager
	var amContainer yarn.Container
	if tr.Enabled() {
		rm = yarn.NewResourceManager(cc)
		rm.SetTracer(tr)
		if c, err := rm.Allocate(cc.ContainerSize(res.CP)); err == nil {
			amContainer = c
		}
	}
	var ad *adapt.Adapter
	if *doAdapt {
		ad = adapt.New(cc)
		ad.Trace = tr
		ad.RM = rm
		if tr.Enabled() {
			ad.OptCharge = tracedOptCharge
		}
		ip.Adapter = ad
	}
	if inj != nil {
		ip.Faults = inj
		ip.Policy = mr.TaskPolicy{MaxAttempts: *maxAttempts, Speculative: true}
	}
	if err := ip.Run(plan); err != nil {
		fatal(err)
	}
	if ad != nil {
		ad.Release()
	}
	if rm != nil && amContainer.ID != 0 {
		if err := rm.Release(amContainer.ID); err != nil {
			fatal(err)
		}
	}

	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, tr.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		if err := writeJSONSummary(out, spec.Name, s.String(), res, ip, ad, inj, optSecs, tr); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprintf(out, "program:    %s on %s\n", spec.Name, s)
		fmt.Fprintf(out, "config:     start %s, final %s\n", res.String(), ip.Res.String())
		fmt.Fprintf(out, "elapsed:    %.1f s simulated (+%.2f s optimization)\n", ip.SimTime, optSecs)
		fmt.Fprintf(out, "execution:  %d instructions, %d MR jobs, %d recompilations, %d migrations\n",
			ip.Stats.Instructions, ip.Stats.MRJobs, ip.Stats.Recompiles, ip.Stats.Migrations)
		if ad != nil && ad.Stats.Reoptimizations > 0 {
			fmt.Fprintf(out, "adaptation: %d re-optimizations (%d reused, %d after node loss), %d migrations (%.1f s)\n",
				ad.Stats.Reoptimizations, ad.Stats.ReoptReuses, ad.Stats.ContainerLossReopts, ad.Stats.Migrations, ad.Stats.MigrationTime)
		}
		if inj != nil {
			fmt.Fprintf(out, "recovery:   %d node failures, %d task retries, %d stragglers (%d speculated), %d HDFS retries, %.1f s re-executed\n",
				ip.Stats.NodeFailures, ip.Stats.TaskRetries, ip.Stats.Stragglers,
				ip.Stats.Speculated, ip.Stats.HDFSRetries, ip.Stats.RecoverySeconds)
		}
	}

	if *metrics {
		fmt.Fprintf(out, "\n-- metrics --\n")
		if err := tr.Metrics().WriteText(out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "\n-- span summary --\n")
		if err := tr.WriteSummary(out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "\n-- predicted vs simulated (per operator) --\n")
		sim := tr.SpanTotals(obs.LayerRuntime)
		delete(sim, "rt.run") // enclosing span, not an operator
		rows := obs.CostTable(predicted, sim)
		if err := obs.WriteCostTable(out, rows); err != nil {
			fatal(err)
		}
	}
	if err := out.Err(); err != nil {
		fatal(err)
	}
}

// runSummary is the -json output shape.
type runSummary struct {
	Program     string  `json:"program"`
	Scenario    string  `json:"scenario"`
	StartConfig string  `json:"start_config"`
	FinalConfig string  `json:"final_config"`
	SimSeconds  float64 `json:"sim_seconds"`
	OptSeconds  float64 `json:"opt_wall_seconds"`

	Execution struct {
		Instructions int `json:"instructions"`
		MRJobs       int `json:"mr_jobs"`
		Recompiles   int `json:"recompiles"`
		Migrations   int `json:"migrations"`
	} `json:"execution"`

	Adaptation *adaptationSummary `json:"adaptation,omitempty"`

	Recovery *struct {
		NodeFailures    int     `json:"node_failures"`
		TaskRetries     int     `json:"task_retries"`
		Stragglers      int     `json:"stragglers"`
		Speculated      int     `json:"speculated"`
		HDFSRetries     int     `json:"hdfs_retries"`
		RecoverySeconds float64 `json:"recovery_seconds"`
	} `json:"recovery,omitempty"`

	Metrics map[string]interface{} `json:"metrics,omitempty"`
}

type adaptationSummary struct {
	Reoptimizations     int     `json:"reoptimizations"`
	ReoptReuses         int     `json:"reopt_reuses"`
	ContainerLossReopts int     `json:"container_loss_reopts"`
	Migrations          int     `json:"migrations"`
	MigrationSeconds    float64 `json:"migration_seconds"`
}

func writeJSONSummary(out *obs.ErrWriter, program, scenario string, start conf.Resources,
	ip *rt.Interp, ad *adapt.Adapter, inj *fault.Injector, optSecs float64, tr *obs.Tracer) error {
	sum := runSummary{
		Program:     program,
		Scenario:    scenario,
		StartConfig: start.String(),
		FinalConfig: ip.Res.String(),
		SimSeconds:  ip.SimTime,
		OptSeconds:  optSecs,
	}
	sum.Execution.Instructions = ip.Stats.Instructions
	sum.Execution.MRJobs = ip.Stats.MRJobs
	sum.Execution.Recompiles = ip.Stats.Recompiles
	sum.Execution.Migrations = ip.Stats.Migrations
	if ad != nil {
		sum.Adaptation = &adaptationSummary{ad.Stats.Reoptimizations, ad.Stats.ReoptReuses,
			ad.Stats.ContainerLossReopts, ad.Stats.Migrations, ad.Stats.MigrationTime}
	}
	if inj != nil {
		r := &struct {
			NodeFailures    int     `json:"node_failures"`
			TaskRetries     int     `json:"task_retries"`
			Stragglers      int     `json:"stragglers"`
			Speculated      int     `json:"speculated"`
			HDFSRetries     int     `json:"hdfs_retries"`
			RecoverySeconds float64 `json:"recovery_seconds"`
		}{ip.Stats.NodeFailures, ip.Stats.TaskRetries, ip.Stats.Stragglers,
			ip.Stats.Speculated, ip.Stats.HDFSRetries, ip.Stats.RecoverySeconds}
		sum.Recovery = r
	}
	sum.Metrics = tr.Metrics().Export()
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if _, err := out.Write(append(b, '\n')); err != nil {
		return err
	}
	return out.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elastic-run:", err)
	os.Exit(1)
}
