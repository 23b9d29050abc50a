package cost_test

import (
	"slices"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/rt"
)

// TestZeroTripLoopCostsNothing: a loop of known zero trips — a for loop
// over an empty range, or a while loop whose predicate folds to false —
// runs no iteration in the simulator, so the model charges it nothing
// either. The body is MR-heavy at a small CP heap; before the fixes the
// model charged it DefaultIters executions (the while loop 107.80 s
// against 17.97 s).
func TestZeroTripLoopCostsNothing(t *testing.T) {
	const body = `
  acc = acc + t(X) %*% rowSums(X);
}
write(acc + t(X) %*% rowSums(X), "/out/acc");
`
	for name, loop := range map[string]string{"for": "for (i in 1:0) {", "while": "k = 0;\nwhile (k > 5) {"} {
		src := "X = read($X);\nacc = matrix(0, rows=1000, cols=1);\n" + loop + body
		t.Run(name, func(t *testing.T) { zeroTripCostsNothing(t, src) })
	}
}

func zeroTripCostsNothing(t *testing.T, src string) {
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1_000_000, 1000, 1_000_000_000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	loop := slices.IndexFunc(hp.Blocks, func(b *hop.Block) bool { return len(b.Body) > 0 })
	if loop < 0 || hp.Blocks[loop].KnownIters != 0 {
		t.Fatalf("want a top-level loop block of 0 known trips in %d blocks", len(hp.Blocks))
	}
	cc := conf.DefaultCluster()
	res := conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf)
	plan := lop.Select(hp, cc, res)
	if body := hp.Blocks[loop].Body[0].Index; lop.NumMRJobs(plan.Blocks[body:body+1]) == 0 {
		t.Fatal("the loop body runs no MR job; the test needs an MR-heavy body")
	}
	// The same plan with the loop block taken out of the program.
	without := *plan
	wp := *hp
	wp.Blocks = slices.Delete(slices.Clone(hp.Blocks), loop, loop+1)
	without.HopProgram = &wp

	with, want := cost.NewEstimator(cc).ProgramCost(plan), cost.NewEstimator(cc).ProgramCost(&without)
	if with != want {
		t.Errorf("ProgramCost %.3f s with the zero-trip loop, %.3f s without", with, want)
	}
	sim := func(p *lop.Plan) float64 {
		ip := rt.New(rt.ModeSim, fs, cc, res)
		if err := ip.Run(p); err != nil {
			t.Fatal(err)
		}
		return ip.SimTime
	}
	if a, b := sim(plan), sim(&without); a != b {
		t.Errorf("simulated %.3f s with the zero-trip loop, %.3f s without", a, b)
	}
}
