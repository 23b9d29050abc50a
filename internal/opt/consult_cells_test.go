package opt_test

import (
	"testing"

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
)

// TestCellAnswersExactInConsults runs every problem of the paper grid from
// its R* with the §4 adapter, as `elastic-run -optimize -adapt` does with
// a fixed charge per re-optimization, and holds every ask a cost cell
// answers in the adapter's searches to the exactness oracle.
func TestCellAnswersExactInConsults(t *testing.T) {
	o := &opt.CellOracle{}
	defer opt.OnCellAnswer(o.Check)()
	cc := conf.DefaultCluster()
	inConsults := 0
	for _, spec := range scripts.All() {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				scen := datagen.New(size, sh.Cols, sh.Sparsity)
				o.Problem = spec.Name + " " + size + " " + scen.ShapeName()
				fs := hdfs.New()
				datagen.Describe(fs, scen)
				prog, err := dml.Parse(spec.Source)
				if err != nil {
					t.Fatal(err)
				}
				hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
				if err != nil {
					t.Fatalf("%s: %v", o.Problem, err)
				}
				res := opt.New(cc).Optimize(hp).Res
				ip := rt.New(rt.ModeSim, fs, cc, res.Clone())
				ip.SimTableCols = 20
				ad := adapt.New(cc)
				ad.OptCharge = 0.1
				ip.Adapter = ad
				before := o.Answered
				if err := ip.Run(lop.Select(hp, cc, res)); err != nil {
					t.Fatalf("%s: %v", o.Problem, err)
				}
				inConsults += o.Answered - before
			}
		}
	}
	if inConsults == 0 {
		t.Error("no cell answered an ask of the adapter's searches")
	}
	t.Logf("%d asks answered in the adapter's searches", inConsults)
	o.Report(t)
}
