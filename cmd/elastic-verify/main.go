// Command elastic-verify runs the differential plan-correctness harness
// and the memory-estimate soundness auditor over the corpus of paper
// scripts and a stream of seeded fuzz programs.
//
// Every program executes under a matrix of resource configurations chosen
// to force different plans (CP heaps straddling the CP-MR flip points,
// degrees of parallelism, DFS block sizes, fault injection, an
// optimizer-picked configuration) plus an independent naive reference
// interpreter. Outputs must be bit-identical across configurations and
// agree with the reference within a relative tolerance; every kernel
// invocation's actual memory footprint must respect the compile-time
// worst-case estimates.
//
// Usage:
//
//	elastic-verify                      # corpus + 25 fuzz programs
//	elastic-verify -fuzz 100 -seed 7 -v
//	elastic-verify -corpus=false -fuzz 5 -json
//	elastic-verify -trace verify-trace.json
//
// Exit status: 0 on success, 1 if any fatal finding was reported, 2 on
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"elasticml/internal/obs"
	"elasticml/internal/verify"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "fuzz program stream seed")
		nFuzz    = flag.Int("fuzz", 25, "number of fuzz programs to generate and run")
		nLoops   = flag.Int("fuzz-loops", 10, "number of loop-corpus fuzz programs (forced for/parfor over batch slices)")
		corpus   = flag.Bool("corpus", true, "run the curated corpus of paper scripts")
		ulpTol   = flag.Uint64("ulp", 0, "allowed cross-configuration ULP distance per cell (0 = bit identical)")
		noRef    = flag.Bool("no-ref", false, "skip the naive reference interpreter comparison")
		jsonOut  = flag.Bool("json", false, "print the report as JSON")
		verbose  = flag.Bool("v", false, "print per-program progress")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of all runs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *nFuzz < 0 || *nLoops < 0 {
		fmt.Fprintln(os.Stderr, "-fuzz and -fuzz-loops must be >= 0")
		os.Exit(2)
	}

	var programs []verify.Program
	if *corpus {
		programs = append(programs, verify.Corpus()...)
	}
	for i := 0; i < *nFuzz; i++ {
		programs = append(programs, verify.FuzzProgram(*seed, i))
	}
	for i := 0; i < *nLoops; i++ {
		programs = append(programs, verify.FuzzLoopProgram(*seed, i))
	}
	if len(programs) == 0 {
		fmt.Fprintln(os.Stderr, "nothing to run: corpus disabled and -fuzz 0 -fuzz-loops 0")
		os.Exit(2)
	}

	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.New(true)
	}
	opts := verify.Options{ULPTol: *ulpTol, SkipReference: *noRef, Trace: tr}

	progress := func(r verify.ProgramResult) {
		if !*verbose {
			return
		}
		status := "ok"
		if len(r.Fatals()) > 0 {
			status = fmt.Sprintf("FAIL (%d findings)", len(r.Fatals()))
		}
		fmt.Fprintf(os.Stderr, "%-16s configs=%d outputs=%d ops=%d maxULP=%d %s\n",
			r.Program, len(r.Configs), r.Outputs, r.Ops, r.MaxULP, status)
	}

	report := verify.Run(programs, opts, progress)
	report.Seed = *seed

	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, tr.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}

	fatals := report.Fatals()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, f := range fatals {
			fmt.Println(f)
		}
		fmt.Printf("verified %d programs x %d configs + reference: %d audited ops, %d fatal findings\n",
			len(report.Programs), len(verify.DefaultConfigs()), report.Ops(), len(fatals))
	}
	if len(fatals) > 0 {
		os.Exit(1)
	}
}
