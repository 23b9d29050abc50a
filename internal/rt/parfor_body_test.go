package rt_test

import (
	"fmt"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/verify"
)

// renderBlock renders one block plan through lop.Explain, as the plan of a
// program holding that block alone.
func renderBlock(lb *lop.Block) string {
	blocks := make([]*lop.Block, lb.HopBlock.Index+1)
	blocks[lb.HopBlock.Index] = lb
	return lop.Explain(&lop.Plan{Blocks: blocks, HopProgram: &hop.Program{Blocks: []*hop.Block{lb.HopBlock}, NumLeaf: len(blocks)}})
}

// parforBodies returns the generic blocks inside a parfor loop.
func parforBodies(blocks []*hop.Block, inParfor bool) []*hop.Block {
	var out []*hop.Block
	for _, b := range blocks {
		if b.Kind == dml.GenericBlock {
			if inParfor {
				out = append(out, b)
			}
			continue
		}
		in := inParfor || b.Parallel
		out = append(out, parforBodies(b.Then, in)...)
		out = append(out, parforBodies(b.Else, in)...)
		out = append(out, parforBodies(b.Body, in)...)
	}
	return out
}

// TestParforBodyPlansAgree: a parfor body block has one plan and one cost
// wherever it is selected. On the loop-corpus programs with a parfor loop,
// at 1 and 4 cores over every CP x MR point of the grid TestSelectTableParfor
// scales to the corpus's kilobyte matrices, for every block of a parfor
// body:
//   - lop.Table.SelectBlock and lop.SelectBlock return the plan lop.Select
//     puts at the block's index, selected under the per-worker CP budget;
//   - cost.Estimator.BlockCost charges its CP work at 1 core;
//   - after a node failure at the start of a run, which makes the
//     interpreter select every block again, the block runs the plan
//     lop.Select gives it under the interpreter's final cluster and
//     resources (a recompiled block, the plan lop.Select gives the
//     recompiled block in the compiled block's place).
func TestParforBodyPlansAgree(t *testing.T) {
	cc := conf.DefaultCluster()
	cc.MinAlloc, cc.MaxAlloc = 16, 256*conf.KB
	programs, selected, costed, ran := 0, 0, 0, 0
	for i := 0; i < 10; i++ {
		p := verify.FuzzLoopProgram(1, i)
		if !strings.Contains(p.Source, "parfor") {
			continue
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
		body := parforBodies(hp.Blocks, false)
		if len(body) == 0 {
			continue
		}
		programs++
		grid := opt.EnumGridPoints(hp, cc, opt.GridHybrid, 15)
		tab := lop.NewTable(cc)
		est := cost.NewEstimator(cc)
		for _, cores := range []int{1, 4} {
			for _, rc := range grid {
				for _, ri := range grid {
					res := conf.NewResources(rc, ri, hp.NumLeaf).WithCores(cores)
					at := fmt.Sprintf("%s cores %d cp %v mr %v", p.Name, cores, rc, ri)
					plan := lop.Select(hp, cc, res)
					for _, hb := range body {
						want := renderBlock(plan.Blocks[hb.Index])
						fromTab, _ := tab.SelectBlock(hb, res)
						for how, got := range map[string]*lop.Block{"Table.SelectBlock": fromTab, "SelectBlock": lop.SelectBlock(hb, cc, res, nil)} {
							if renderBlock(got) != want {
								t.Fatalf("%s block %d: %s gives\n%s\nSelect gives\n%s", at, hb.Index, how, renderBlock(got), want)
							}
						}
						selected++
						if got, one := est.BlockCost(plan.Blocks[hb.Index], res), est.BlockCost(plan.Blocks[hb.Index], res.WithCores(1)); got != one {
							t.Fatalf("%s block %d: BlockCost charges %v s, %v s at 1 core", at, hb.Index, got, one)
						}
						costed++
					}
					ip := rt.New(rt.ModeSim, fs, cc, res)
					ip.Faults = fault.MustInjector(fault.Plan{Seed: 1, NodeFailures: []fault.NodeFailure{{Node: 0, At: 0}}})
					if err := ip.Run(plan); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					final := lop.Select(hp, ip.CC, ip.Res)
					for _, hb := range body {
						lb, ok := ip.LastPlan(hb)
						if !ok {
							continue // never ran
						}
						want := final.Blocks[hb.Index]
						if lb.HopBlock != hb {
							want = lop.Select(&hop.Program{Blocks: []*hop.Block{lb.HopBlock}, NumLeaf: hp.NumLeaf}, ip.CC, ip.Res).Blocks[hb.Index]
						}
						if renderBlock(lb) != renderBlock(want) {
							t.Fatalf("%s block %d: the interpreter ran\n%s\nSelect gives\n%s", at, hb.Index, renderBlock(lb), renderBlock(want))
						}
						ran++
					}
				}
			}
		}
	}
	if programs == 0 || selected == 0 || costed == 0 || ran == 0 {
		t.Fatalf("checked %d programs: %d selections, %d costings, %d runs", programs, selected, costed, ran)
	}
}
