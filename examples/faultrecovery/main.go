// Faultrecovery: end-to-end failure recovery on the simulated cluster.
// MLogreg runs on an 80GB scenario under seeded fault injection, twice:
//
//  1. A node failure at t=30s. The interpreter shrinks its cluster view,
//     hands the adapter a container-loss trigger, and the adapter
//     re-optimizes the remaining scope for the surviving capacity —
//     graceful degradation instead of a stale over-committed plan.
//  2. Task failures and stragglers in every MR job. Failed attempts are
//     re-executed (up to Hadoop's default 4 attempts), stragglers are
//     rescued by speculative backups, and the re-execution cost shows up
//     as an explicit Recovery component of the simulated time.
//
// Everything is deterministic under the fixed seed: re-running this
// example prints byte-identical numbers.
package main

import (
	"fmt"
	"log"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/mr"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

func main() {
	cc := conf.DefaultCluster()
	scenario := datagen.New("L", 1000, 1.0) // 10^7 x 1000, 80 GB dense
	spec := scripts.MLogreg()

	run := func(label string, plan fault.Plan, pol mr.TaskPolicy) {
		fs := hdfs.New()
		datagen.Describe(fs, scenario)
		prog, err := dml.Parse(spec.Source)
		if err != nil {
			log.Fatal(err)
		}
		hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
		if err != nil {
			log.Fatal(err)
		}
		optimizer := opt.New(cc)
		optimizer.Opts.Points = 7
		res := optimizer.Optimize(hp).Res

		ip := rt.New(rt.ModeSim, fs, cc, res)
		ip.SimTableCols = 20
		ad := adapt.New(cc)
		ad.Opt.Points = 7
		ad.OptCharge = 2 // fixed simulated re-optimization charge
		ip.Adapter = ad
		if plan.Enabled() {
			ip.Faults = fault.MustInjector(plan)
			ip.Policy = pol
		}
		if err := ip.Run(lop.Select(hp, cc, res)); err != nil {
			fmt.Printf("%-22s ABORTED: %v\n", label, err)
			return
		}
		fmt.Printf("%-22s %8.1f s simulated  (start %s, final %s, %d live nodes)\n",
			label, ip.SimTime, res, ip.Res, ip.CC.Nodes)
		if ip.Stats.NodeFailures > 0 {
			fmt.Printf("%22s %d node failure(s) -> %d container-loss re-optimizations\n",
				"", ip.Stats.NodeFailures, ad.Stats.ContainerLossReopts)
		}
		if ip.Stats.TaskRetries > 0 || ip.Stats.Stragglers > 0 {
			fmt.Printf("%22s %d task retries, %d stragglers (%d speculated), %.1f s re-executed\n",
				"", ip.Stats.TaskRetries, ip.Stats.Stragglers,
				ip.Stats.Speculated, ip.Stats.RecoverySeconds)
		}
	}

	const seed = 42
	run("healthy cluster:", fault.Plan{}, mr.TaskPolicy{})
	run("node failure @30s:",
		fault.Plan{Seed: seed, NodeFailures: []fault.NodeFailure{{Node: 0, At: 30}}},
		mr.DefaultTaskPolicy())
	run("5% task failures:",
		fault.Plan{Seed: seed, TaskFailureProb: 0.05, StragglerProb: 0.02, StragglerFactor: 6},
		mr.DefaultTaskPolicy())
	run("5% + no retries:",
		fault.Plan{Seed: seed, TaskFailureProb: 0.05},
		mr.TaskPolicy{MaxAttempts: 1})
}
