// Command elastic-bench regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	elastic-bench -exp all          # every experiment, full parameters
//	elastic-bench -exp fig7 -quick  # one experiment at reduced resolution
//	elastic-bench -list
package main

import (
	"flag"
	"fmt"
	"os"

	"elasticml/internal/bench"
	"elasticml/internal/obs"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (fig1, table1, table2, fig7..fig15, fig18, table3, table5, table6, ablations, failures, workload, chaos, elastic, minibatch) or 'all'")
		quick = flag.Bool("quick", false, "reduced grid resolution and scenario coverage")
		list  = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()
	out := &obs.ErrWriter{W: os.Stdout}

	r := bench.New(out)
	r.Quick = *quick
	if *list {
		for _, e := range r.Experiments() {
			fmt.Fprintln(out, e.ID)
		}
	} else if err := r.Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "elastic-bench:", err)
		os.Exit(1)
	}
	if err := out.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "elastic-bench:", err)
		os.Exit(1)
	}
}
