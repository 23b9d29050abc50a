// Quickstart: compile a DML script, optimize its resource configuration,
// and execute it with real data in value mode — the full pipeline on a
// laptop-sized problem.
package main

import (
	"fmt"
	"log"
	"os"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

func main() {
	// 1. A simulated cluster and DFS with a real 10,000 x 50 regression
	//    problem (y = X beta, beta recoverable).
	cc := conf.DefaultCluster()
	fs := hdfs.New()
	scenario := datagen.Scenario{Size: "XS", Cells: 500_000, Cols: 50, Sparsity: 1.0}
	if err := datagen.Materialize(fs, scenario, 2, 42); err != nil {
		log.Fatal(err)
	}

	// 2. Compile the conjugate-gradient linear regression script into the
	//    HOP program: statement blocks, size propagation, memory estimates.
	spec := scripts.LinregCG()
	spec.Params["maxi"] = float64(20)
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %d program blocks (%d leaves)\n",
		spec.Name, len(hp.Blocks), hp.NumLeaf)

	// 3. Optimize the resource configuration via online what-if analysis.
	optimizer := opt.New(cc)
	result := optimizer.Optimize(hp)
	fmt.Printf("optimizer chose %s (estimated %.2fs) after %d block compilations in %v\n",
		result.Res.String(), result.Cost,
		result.Stats.BlockCompilations, result.Stats.OptTime)

	// 4. Generate the runtime plan under R* and execute it for real.
	plan := lop.Select(hp, cc, result.Res)
	ip := rt.New(rt.ModeValue, fs, cc, result.Res)
	ip.Out = os.Stdout
	if err := ip.Run(plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed in %.2f simulated seconds (%d instructions, %d MR jobs)\n",
		ip.SimTime, ip.Stats.Instructions, ip.Stats.MRJobs)

	// 5. The model landed on the DFS.
	beta, err := fs.Stat("/out/beta")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model written: %s is %dx%d\n", beta.Name, beta.Rows, beta.Cols)
}
