// Command elastic-opt runs the resource optimizer for an ML program and
// prints the near-optimal configuration R*_P with optimization statistics —
// the "initial resource optimization" entry point of Figure 2(b).
//
// Usage:
//
//	elastic-opt -program LinregCG -size M -cols 1000 -sparsity 1.0
//	elastic-opt -program L2SVM -size L -grid equi -points 45 -workers 8
//	elastic-opt -program MLogreg -size M -trace opt-trace.json -metrics -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/scripts"
)

func main() {
	var (
		program  = flag.String("program", "LinregCG", "ML program: LinregDS, LinregCG, L2SVM, MLogreg, GLM")
		size     = flag.String("size", "M", "scenario size: XS, S, M, L, XL")
		cols     = flag.Int64("cols", 1000, "feature count (1000 or 100)")
		sparsity = flag.Float64("sparsity", 1.0, "input sparsity (1.0 dense, 0.01 sparse)")
		grid     = flag.String("grid", "hybrid", "grid strategy: equi, exp, mem, hybrid")
		points   = flag.Int("points", 15, "base grid points per dimension")
		workers  = flag.Int("workers", 1, "parallel optimizer workers")
		pruning  = flag.Bool("pruning", true, "enable block pruning")
		cores    = flag.String("cores", "", "comma-separated CP core candidates, e.g. 1,4,12 (§6 extension)")
		load     = flag.Float64("load", 0, "cluster utilization in [0,1) for load-aware optimization")

		// Observability.
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the optimization")
		metrics  = flag.Bool("metrics", false, "print the metrics registry and span summary")
		jsonOut  = flag.Bool("json", false, "print a machine-readable JSON summary instead of text")
	)
	flag.Parse()
	out := &obs.ErrWriter{W: os.Stdout}

	spec, ok := scripts.ByName(*program)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *program)
		os.Exit(2)
	}
	gridType, err := opt.ParseGrid(*grid)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cc := conf.DefaultCluster()
	s, err := datagen.Parse(strings.ToUpper(*size), *cols, *sparsity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elastic-opt:", err)
		os.Exit(2)
	}
	if !(*load >= 0 && *load < 1) {
		fmt.Fprintf(os.Stderr, "elastic-opt: -load %g outside [0, 1)\n", *load)
		os.Exit(2)
	}

	var tr *obs.Tracer
	if *traceOut != "" || *metrics || *jsonOut {
		tr = obs.New(*traceOut != "" || *metrics)
	}

	fs := hdfs.New()
	fs.SetTracer(tr)
	datagen.Describe(fs, s)

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

	o := opt.New(cc)
	o.Trace = tr
	o.Opts.Grid = gridType
	o.Opts.Points = *points
	o.Opts.Workers = *workers
	o.Opts.DisablePruning = !*pruning
	o.Opts.ClusterLoad = *load
	if *cores != "" {
		for _, c := range strings.Split(*cores, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(c), "%d", &n); err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad core candidate %q\n", c)
				os.Exit(2)
			}
			o.Opts.CPCoreCandidates = append(o.Opts.CPCoreCandidates, n)
		}
	}
	res := o.Optimize(hp)

	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, tr.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}

	st := res.Stats
	if *jsonOut {
		if err := writeJSONSummary(out, spec.Name, s.String(), res, tr); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprintf(out, "program:   %s on %s\n", spec.Name, s)
		fmt.Fprintf(out, "cluster:   %d nodes x %v, alloc [%v, %v]\n",
			cc.Nodes, cc.MemPerNode, cc.MinAlloc, cc.MaxAlloc)
		fmt.Fprintf(out, "R*:        %s (%d CP cores)\n", res.Res.String(), res.Res.Cores())
		fmt.Fprintf(out, "           %s\n", res.Res.Detailed())
		fmt.Fprintf(out, "est. cost: %.1f s\n", res.Cost)
		fmt.Fprintf(out, "effort:    %d block compilations, %d costings, %v (grid %dx%d, blocks %d/%d enumerated)\n",
			st.BlockCompilations, st.Costings, st.OptTime,
			st.CPPoints, st.MRPoints, st.RemainingBlocks, st.TotalBlocks)
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
	}
	if err := out.Err(); err != nil {
		fatal(err)
	}
}

// optSummary is the -json output shape.
type optSummary struct {
	Program  string  `json:"program"`
	Scenario string  `json:"scenario"`
	Config   string  `json:"config"`
	CPCores  int     `json:"cp_cores"`
	EstCost  float64 `json:"est_cost_seconds"`

	Effort struct {
		BlockCompilations int     `json:"block_compilations"`
		Costings          int     `json:"costings"`
		OptWallSeconds    float64 `json:"opt_wall_seconds"`
		CPPoints          int     `json:"cp_points"`
		MRPoints          int     `json:"mr_points"`
		RemainingBlocks   int     `json:"remaining_blocks"`
		TotalBlocks       int     `json:"total_blocks"`
		PrunedBlocks      int     `json:"pruned_blocks"`
		MemoHits          int     `json:"memo_hits"`
	} `json:"effort"`

	Metrics obs.MetricsSnapshot `json:"metrics"`
}

func writeJSONSummary(out *obs.ErrWriter, program, scenario string, res *opt.Result, tr *obs.Tracer) error {
	sum := optSummary{
		Program:  program,
		Scenario: scenario,
		Config:   res.Res.String(),
		CPCores:  res.Res.Cores(),
		EstCost:  res.Cost,
	}
	st := res.Stats
	sum.Effort.BlockCompilations = st.BlockCompilations
	sum.Effort.Costings = st.Costings
	sum.Effort.OptWallSeconds = st.OptTime.Seconds()
	sum.Effort.CPPoints = st.CPPoints
	sum.Effort.MRPoints = st.MRPoints
	sum.Effort.RemainingBlocks = st.RemainingBlocks
	sum.Effort.TotalBlocks = st.TotalBlocks
	sum.Effort.PrunedBlocks = st.PrunedBlocks
	sum.Effort.MemoHits = st.MemoHits
	sum.Metrics = tr.Metrics().Snapshot()
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
	fmt.Fprintln(os.Stderr, "elastic-opt:", err)
	os.Exit(1)
}
