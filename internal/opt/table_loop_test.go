package opt_test

import (
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/verify"
)

// TestSelectTableParfor: whole-program selection through a warm lop.Table
// renders as a fresh lop.Select on a loop-corpus program with parfor
// loops, whose bodies select under the CP budget divided by the worker
// count. The cluster's heaps are scaled down to the corpus's kilobyte
// matrices so that the grid crosses CP and MR thresholds.
func TestSelectTableParfor(t *testing.T) {
	p := verify.FuzzLoopProgram(1, 0)
	if !strings.Contains(p.Source, "parfor") {
		t.Fatalf("%s has no parfor loop:\n%s", p.Name, p.Source)
	}
	fs := hdfs.New()
	p.Setup(fs)
	prog, err := dml.Parse(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	cc := conf.DefaultCluster()
	cc.MinAlloc, cc.MaxAlloc = 16, 256*conf.KB
	src := opt.EnumGridPoints(hp, cc, opt.GridHybrid, 15)
	srm := opt.EnumGridPoints(hp, cc, opt.GridHybrid, 15)
	cores := []int{1, 4}
	res := func(rc, ri conf.Bytes, c int) conf.Resources {
		return conf.NewResources(rc, ri, hp.NumLeaf).WithCores(c)
	}
	tab := lop.NewTable(cc)
	for _, c := range cores {
		for _, rc := range src {
			for _, ri := range srm {
				tab.Select(hp, res(rc, ri, c))
			}
		}
	}
	plans := map[string]bool{}
	for _, c := range cores {
		for _, rc := range src {
			for _, ri := range srm {
				got, want := lop.Explain(tab.Select(hp, res(rc, ri, c))), lop.Explain(lop.Select(hp, cc, res(rc, ri, c)))
				if got != want {
					t.Fatalf("cores %d cp %v mr %v: the table serves\n%s\nfresh selection gives\n%s", c, rc, ri, got, want)
				}
				plans[want[strings.IndexByte(want, '\n'):]] = true // without the resources line
			}
		}
	}
	if len(plans) < 2 {
		t.Fatalf("the grid selects %d distinct plans; the cluster no longer crosses a threshold", len(plans))
	}
}
