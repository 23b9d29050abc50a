// Command elastic-serve runs the multi-tenant elastic workload service: N
// DML programs with staggered arrivals contend for one simulated YARN
// cluster, sharing a plan cache across tenants, with §5-style mid-run
// re-optimization on departures and node failures. It prints a per-tenant
// admission report and can emit a machine-readable JSON report and a
// Chrome trace.
//
// A run is described by one JSON document (workload.RunSpec; see
// scenarios/): the cluster, the service options — policy, chaos plan,
// recovery, breaker, elastic tick, ... — and either an explicit job list
// or a seeded generator. The flags are deployment paths and addresses plus
// the few values the gates and sweeps vary over one file. The simulation is
// deterministic: the same file produces byte-identical reports and traces,
// which this package's tests check for every file committed under
// scenarios/. A flag the selected mode would ignore is an error: -replay
// takes only -json, -trace and -metrics need a batch run, and -http and
// -record need -listen.
//
// Usage:
//
//	elastic-serve                                   # 16-tenant demo workload
//	elastic-serve -tenants 24 -seed 7
//	elastic-serve -scenario scenarios/demo_nodefail.json -json report.json -trace trace.json
//	elastic-serve -scenario scenarios/burst.json -policy fair
//	elastic-serve -scenario scenarios/chaos_mix.json
//
// With -listen it instead runs as a long-lived network daemon speaking the
// binary wire protocol (see internal/server), configured by the same file
// and its "daemon" section; SIGTERM drains gracefully and prints the final
// report. -record / -replay reproduce a live run byte-identically offline:
//
//	elastic-serve -scenario scenarios/daemon.json -listen :7071 -http :7072 -record ops.json -json live.json
//	elastic-serve -replay ops.json -json replayed.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"elasticml/internal/obs"
	"elasticml/internal/workload"
)

var (
	scen    = flag.String("scenario", "", "run description JSON: cluster, options, jobs or generate, daemon (default: the 16-tenant demo)")
	policy  = flag.String("policy", "", "override the run's scheduling policy: fifo, fair, or regret")
	tenants = flag.Int("tenants", 0, "override the generator's tenant count")
	seed    = flag.Int64("seed", 0, "override the generator's seed")

	jsonOut  = flag.String("json", "", "write the JSON report to this file ('-' for stdout)")
	traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file (batch mode)")
	metrics  = flag.Bool("metrics", false, "print the workload metrics registry (batch mode)")

	listen   = flag.String("listen", "", "run as a network daemon on this TCP address (e.g. :7071)")
	httpAddr = flag.String("http", "", "metrics/pprof HTTP sidecar address (daemon mode)")
	record   = flag.String("record", "", "write the op log JSON here on shutdown (daemon mode)")
	replay   = flag.String("replay", "", "replay a recorded op log and print its report (no network; takes only -json)")
)

func main() {
	flag.Parse()
	if err := serve(); err != nil {
		fmt.Fprintln(os.Stderr, "elastic-serve:", err)
		os.Exit(1)
	}
}

func serve() error {
	// Only the flags actually given override the file, and each must be
	// one the selected mode reads.
	given := map[string]bool{}
	var err error
	flag.Visit(func(f *flag.Flag) {
		given[f.Name] = true
		if err == nil {
			err = checkMode(f.Name)
		}
	})
	if err != nil {
		return err
	}
	if *replay != "" {
		return runReplay(*replay)
	}
	spec, err := loadSpec(*scen)
	if err != nil {
		return err
	}
	if given["policy"] {
		if spec.Policy, err = workload.ParsePolicy(*policy); err != nil {
			return err
		}
	}
	if given["tenants"] || given["seed"] {
		if spec.Generate == nil {
			return fmt.Errorf("-tenants and -seed override the generate section, which %s does not have", *scen)
		}
		if given["tenants"] {
			spec.Generate.Tenants = *tenants
		}
		if given["seed"] {
			spec.Generate.Seed = *seed
		}
	}
	if *listen != "" {
		return runDaemon(spec)
	}
	return runBatch(spec)
}

// checkMode rejects a flag the selected mode would silently ignore.
func checkMode(name string) error {
	switch {
	case *replay != "" && name != "replay" && name != "json":
		return fmt.Errorf("-%s does not apply to -replay, which takes only -json", name)
	case *listen != "" && (name == "trace" || name == "metrics"):
		return fmt.Errorf("-%s needs a batch run; the daemon (-listen) does not write it", name)
	case *listen == "" && (name == "http" || name == "record"):
		return fmt.Errorf("-%s needs -listen", name)
	}
	return nil
}

// loadSpec reads the -scenario file, or returns the demo run without one.
func loadSpec(path string) (*workload.RunSpec, error) {
	if path == "" {
		return workload.DefaultRunSpec(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.LoadRunSpec(f)
}

// runBatch simulates the run's jobs to completion and prints the report.
func runBatch(spec *workload.RunSpec) error {
	jobs, err := spec.JobSpecs()
	if err != nil {
		return err
	}
	var met *obs.Metrics
	if *traceOut != "" || *metrics {
		spec.Trace = obs.New(*traceOut != "")
		if *metrics {
			met = spec.Trace.Metrics()
		}
	}
	rep, err := workload.Run(spec.Cluster, jobs, spec.Options)
	if err != nil {
		return err
	}
	if err := printReport(rep, met); err != nil {
		return err
	}
	if *traceOut != "" {
		return writeFile(*traceOut, spec.Trace.WriteChromeTrace)
	}
	return nil
}

// printReport prints the report table, the metrics registry when given
// one, and the -json report (to its file, or to stdout for "-").
func printReport(rep *workload.Report, met *obs.Metrics) error {
	out := &obs.ErrWriter{W: os.Stdout}
	if err := rep.WriteTable(out); err != nil {
		return err
	}
	if met != nil {
		fmt.Fprintln(out)
		met.WriteText(out)
	}
	switch *jsonOut {
	case "":
	case "-":
		if err := rep.WriteJSON(out); err != nil {
			return err
		}
	default:
		if err := writeFile(*jsonOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	return out.Err()
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
