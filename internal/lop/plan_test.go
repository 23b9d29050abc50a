package lop

import (
	"fmt"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

// checkLeafPlans requires that plan holds one block plan per generic block
// of hp, the i-th for the i-th entry of hp.LeafBlocks().
func checkLeafPlans(t *testing.T, name string, hp *hop.Program, plan *Plan) {
	t.Helper()
	leaves := hp.LeafBlocks()
	if len(plan.Blocks) != hp.NumLeaf || len(leaves) != hp.NumLeaf {
		t.Fatalf("%s: %d block plans and %d leaf blocks, want NumLeaf = %d", name, len(plan.Blocks), len(leaves), hp.NumLeaf)
	}
	for i, b := range plan.Blocks {
		if b == nil || b.HopBlock != leaves[i] {
			t.Fatalf("%s: plan.Blocks[%d] is not the plan of leaf block %d", name, i, i)
		}
	}
}

// TestPlanIndexesLeafBlocks: a plan is one block plan per generic block,
// indexed by hop.Block.Index, under Select and Table.Select alike, on the
// paper grid and the mini-batch family.
func TestPlanIndexesLeafBlocks(t *testing.T) {
	cc := conf.DefaultCluster()
	checked := 0
	for _, spec := range append(scripts.All(), scripts.Minibatch()...) {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				scen := datagen.New(size, sh.Cols, sh.Sparsity)
				name := fmt.Sprintf("%s %s %s", spec.Name, size, scen.ShapeName())
				fs := hdfs.New()
				datagen.Describe(fs, scen)
				prog, err := dml.Parse(spec.Source)
				if err != nil {
					t.Fatal(err)
				}
				hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tab := NewTable(cc)
				for _, rc := range []conf.Bytes{512 * conf.MB, 8 * conf.GB, 64 * conf.GB} {
					res := conf.NewResources(rc, 2*conf.GB, hp.NumLeaf)
					checkLeafPlans(t, name, hp, Select(hp, cc, res))
					checkLeafPlans(t, name+" (table)", hp, tab.Select(hp, res))
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no plan was checked")
	}
}

const parforSrc = `X = read($X);
stats = matrix(0, rows=ncol(X), cols=1);
parfor (j in 1:8) {
  col = X[, j];
  s = sum(col ^ 2);
  stats[j, 1] = s;
}
write(stats, "/out/stats");
`

// instrs renders a block plan's instructions.
func instrs(b *Block) string {
	var sb strings.Builder
	for _, in := range b.Instrs {
		explainInstr(&sb, in, 0)
	}
	return sb.String()
}

// TestPlanParforBody: the plans of a parfor body's blocks sit in the plan
// like any other, and were selected under the CP budget divided by the
// worker count (the core count, at most the trip count of 8), under
// Select, Table.Select and SelectBlock alike. Some heap must select a body
// block differently under the whole budget, or the division is not
// observed. Both references select a copy of the block outside the loop.
func TestPlanParforBody(t *testing.T) {
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1_000_000, 8, 8_000_000, hdfs.BinaryBlock)
	prog, err := dml.Parse(parforSrc)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, parforSrc)
	if err != nil {
		t.Fatal(err)
	}
	var loop *hop.Block
	hop.WalkBlocks(hp.Blocks, func(b *hop.Block) {
		if b.Parallel {
			loop = b
		}
	})
	if loop == nil || len(loop.Body) == 0 {
		t.Fatal("the program has no parfor loop with a body")
	}
	cc := conf.DefaultCluster()
	moved := 0
	for _, cores := range []int{1, 4, 16} {
		tab := NewTable(cc)
		for _, rc := range []conf.Bytes{128 * conf.MB, 256 * conf.MB, 512 * conf.MB, conf.GB, 2 * conf.GB, 4 * conf.GB} {
			res := conf.NewResources(rc, 512*conf.MB, hp.NumLeaf).WithCores(cores)
			name := fmt.Sprintf("cores %d cp %v", cores, rc)
			plans := []*Plan{Select(hp, cc, res), tab.Select(hp, res)}
			for _, plan := range plans {
				checkLeafPlans(t, name, hp, plan)
			}
			for _, hb := range loop.Body {
				if hb.Kind != dml.GenericBlock {
					continue
				}
				outside := *hb
				outside.Parent = nil
				s := newSelector(cc, res, nil)
				s.whole = conf.Bytes(float64(s.whole) / float64(min(cores, 8)))
				lb, _ := s.generic(&outside, nil)
				want := instrs(lb)
				lb, _ = tab.SelectBlock(hb, res)
				for _, got := range []*Block{plans[0].Blocks[hb.Index], plans[1].Blocks[hb.Index], lb, SelectBlock(hb, cc, res, nil)} {
					if instrs(got) != want {
						t.Fatalf("%s: body block %d is\n%s\nselected under the divided budget it is\n%s", name, hb.Index, instrs(got), want)
					}
				}
				if instrs(SelectBlock(&outside, cc, res, nil)) != want {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no heap selects a body block differently under the whole CP budget")
	}
}

// TestNestedParforDividesOnce: a parfor nested in another runs on one of
// the outer loop's single-threaded workers, so its body is selected under
// the outer loop's per-worker budget, as under an inner for loop. At 4
// cores, a 100,000 x 100 X puts sum(X ^ 2) in MR if the inner loop divides
// that budget by 4 again; Select, Table.SelectBlock and SelectBlock must
// give the inner body the plan an inner for loop gets.
func TestNestedParforDividesOnce(t *testing.T) {
	const nested = `X = read($X);
acc = matrix(0, rows=4, cols=4);
parfor (i in 1:4) {
  INNER (j in 1:4) {
    acc[i, j] = sum(X ^ 2) + i + j;
  }
}
write(acc, "/out/acc");
`
	cc := conf.DefaultCluster()
	body := func(inner string) (*hop.Program, *hop.Block) {
		src := strings.Replace(nested, "INNER", inner, 1)
		fs := hdfs.New()
		fs.PutDescriptor("/data/X", 100_000, 100, 10_000_000, hdfs.BinaryBlock)
		prog, err := dml.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
		if err != nil {
			t.Fatal(err)
		}
		var hb *hop.Block
		hop.WalkBlocks(hp.Blocks, func(b *hop.Block) {
			if b.Kind == dml.GenericBlock && b.Parent != nil && b.Parent.Parent != nil {
				hb = b
			}
		})
		if hb == nil {
			t.Fatalf("inner %s: no generic block two loops deep", inner)
		}
		return hp, hb
	}
	parHP, parBody := body("parfor")
	forHP, forBody := body("for")
	for _, cp := range []conf.Bytes{256 * conf.MB, 512 * conf.MB, conf.GB, 2 * conf.GB, 4 * conf.GB} {
		res := conf.NewResources(cp, 512*conf.MB, parHP.NumLeaf).WithCores(4)
		want := instrs(Select(forHP, cc, res).Blocks[forBody.Index])
		tb, _ := NewTable(cc).SelectBlock(parBody, res)
		for name, got := range map[string]*Block{
			"Select":            Select(parHP, cc, res).Blocks[parBody.Index],
			"Table.SelectBlock": tb,
			"SelectBlock":       SelectBlock(parBody, cc, res, nil),
		} {
			if instrs(got) != want {
				t.Errorf("cp %v: %s selects the inner parfor body as\n%sthe inner for body as\n%s", cp, name, instrs(got), want)
			}
		}
	}
}
