// Multitenant: the paper's throughput scenario (§5.3). Many users share
// one YARN cluster; each runs a LinregDS application. With the statically
// over-provisioned B-LL configuration at most 6 applications fit the
// cluster; the optimizer's right-sized configuration admits dozens.
package main

import (
	"fmt"
	"log"
	"os"

	"elasticml/internal/bench"
	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
	"elasticml/internal/yarn"
)

func main() {
	cc := conf.DefaultCluster()
	runner := bench.New(os.Stdout)
	runner.Quick = true

	scenario := datagen.New("S", 1000, 1.0) // 800 MB dense
	optRun, err := runner.EndToEnd(scripts.LinregDS(), scenario, bench.RunConfig{Optimize: true})
	if err != nil {
		log.Fatal(err)
	}
	bll := bench.Baselines(cc)[3] // B-LL: 53.3GB/4.4GB
	bllRun, err := runner.EndToEnd(scripts.LinregDS(), scenario, bench.RunConfig{
		Res: conf.NewResources(bll.CP, bll.MR, 1)})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("per-application runtimes: Opt %s -> %.0fs, B-LL %v -> %.0fs\n",
		optRun.Res.String(), optRun.SimSeconds, bll.CP, bllRun.SimSeconds)
	fmt.Printf("application parallelism:  Opt %d, B-LL %d\n\n",
		yarn.MaxConcurrentApps(cc, optRun.Res.CP), yarn.MaxConcurrentApps(cc, bll.CP))

	fmt.Printf("%-7s %12s %12s %9s\n", "#users", "Opt [a/min]", "B-LL [a/min]", "speedup")
	for _, users := range []int{1, 4, 8, 16, 32, 64, 128} {
		opt := yarn.SimulateThroughput(cc, yarn.ThroughputSpec{
			Users: users, AppsPerUser: 8, AMHeap: optRun.Res.CP, Duration: optRun.SimSeconds})
		base := yarn.SimulateThroughput(cc, yarn.ThroughputSpec{
			Users: users, AppsPerUser: 8, AMHeap: bll.CP, Duration: bllRun.SimSeconds})
		fmt.Printf("%-7d %12.1f %12.1f %8.1fx\n",
			users, opt.AppsPerMinute, base.AppsPerMinute,
			opt.AppsPerMinute/base.AppsPerMinute)
	}
	fmt.Println("\nAvoided over-provisioning converts directly into cluster throughput.")
}
