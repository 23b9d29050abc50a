// Adaptation: multinomial logistic regression with a data-dependent class
// count (§4.2's running example). The class count — and with it the size
// of every gradient and probability matrix — is unknown until table()
// executes, so initial resource optimization undershoots the CP memory and
// spawns unnecessary MR jobs. Dynamic recompilation makes the sizes known,
// runtime re-optimization detects the misconfiguration, and the AM
// migrates to a larger container.
package main

import (
	"fmt"
	"log"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/yarn"
)

func main() {
	cc := conf.DefaultCluster()
	scenario := datagen.New("S", 1000, 1.0) // 10^5 x 1000, 800 MB dense
	fs := hdfs.New()
	datagen.Describe(fs, scenario)

	spec := scripts.MLogreg()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		log.Fatal(err)
	}

	// Initial optimization sees unknown sizes in the core loops and prunes
	// those blocks; the chosen CP memory is far too small for k=200.
	optimizer := opt.New(cc)
	initial := optimizer.Optimize(hp)
	fmt.Printf("initial optimization: %s (unknown intermediate sizes)\n", initial.Res.String())

	run := func(withAdaptation bool) (float64, *adapt.Adapter) {
		plan := lop.Select(hp, cc, initial.Res)
		ip := rt.New(rt.ModeSim, fs, cc, initial.Res)
		ip.SimTableCols = 20 // the simulated label vector has 20 classes
		var ad *adapt.Adapter
		if withAdaptation {
			ad = adapt.New(cc)
			ad.RM = yarn.NewResourceManager(cc)
			ip.Adapter = ad
		}
		if err := ip.Run(plan); err != nil {
			log.Fatal(err)
		}
		if ad != nil {
			fmt.Printf("  adapted to %s via %d migration(s), AM chain length %d\n",
				ip.Res.String(), ip.Stats.Migrations, ad.Stats.ChainLength)
			ad.Release()
		}
		return ip.SimTime, ad
	}

	fmt.Println("running without adaptation:")
	noAdapt, _ := run(false)
	fmt.Printf("  %.0f s simulated\n", noAdapt)

	fmt.Println("running with runtime resource adaptation:")
	withAdapt, ad := run(true)
	fmt.Printf("  %.0f s simulated (%d re-optimizations, %d answered without a search)\n",
		withAdapt, ad.Stats.Reoptimizations, ad.Stats.ReoptReuses)

	fmt.Printf("\nadaptation speedup: %.1fx\n", noAdapt/withAdapt)
}
