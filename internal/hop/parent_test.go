package hop_test

import (
	"fmt"
	"strings"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
)

// checkParents requires every block under blocks, at any depth, to have
// the Parent its position gives it: parent for blocks, the control block
// holding it for the others.
func checkParents(t *testing.T, name string, blocks []*hop.Block, parent *hop.Block) {
	t.Helper()
	for _, b := range blocks {
		if b.Parent != parent {
			t.Fatalf("%s: block at lines %d-%d has the wrong Parent", name, b.FirstLine, b.LastLine)
		}
		checkParents(t, name, b.Then, b)
		checkParents(t, name, b.Else, b)
		checkParents(t, name, b.Body, b)
	}
}

// TestBlocksKnowTheirParent: on the paper scripts and the mini-batch
// family at every size and shape, and on the loop corpus, every block
// Compile returns, every block of the scope RebuildScope builds from each
// top-level block onwards, and every block RecompileGeneric returns — by
// re-size, into a reused buffer, and by rebuild — has the Parent its tree
// position gives it, and no template has one.
func TestBlocksKnowTheirParent(t *testing.T) {
	type problem struct {
		name, source string
		params       map[string]interface{}
		fs           *hdfs.FS
	}
	var problems []problem
	for _, spec := range append(scripts.All(), scripts.Minibatch()...) {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				scen := datagen.New(size, sh.Cols, sh.Sparsity)
				fs := hdfs.New()
				datagen.Describe(fs, scen)
				problems = append(problems, problem{fmt.Sprintf("%s %s %s", spec.Name, size, scen.ShapeName()), spec.Source, spec.Params, fs})
			}
		}
	}
	parfors := 0
	for i := 0; i < 10; i++ {
		p := verify.FuzzLoopProgram(1, i)
		fs := hdfs.New()
		p.Setup(fs)
		problems = append(problems, problem{p.Name, p.Source, p.Params, fs})
		if strings.Contains(p.Source, "parfor") {
			parfors++
		}
	}
	if parfors == 0 {
		t.Fatal("no loop-corpus program has a parfor loop")
	}
	nested := 0
	for _, p := range problems {
		prog, err := dml.Parse(p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		c := hop.NewCompiler(p.fs, p.params)
		hp, err := c.Compile(prog, p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		checkParents(t, p.name, hp.Blocks, nil)
		for _, b := range hop.Templates(c) {
			if b.Parent != nil {
				t.Fatalf("%s: the template of lines %d-%d has a parent", p.name, b.FirstLine, b.LastLine)
			}
		}
		meta := hop.WrittenMeta(hp)
		hop.WalkBlocks(hp.Blocks, func(b *hop.Block) {
			if b.Var != "" {
				meta[b.Var] = hop.VarMeta{}
			}
		})
		for i := range hp.Blocks {
			scope, err := c.RebuildScope(hp.Blocks[i:], meta.Clone())
			if err != nil {
				t.Fatalf("%s scope %d: %v", p.name, i, err)
			}
			checkParents(t, fmt.Sprintf("%s scope %d", p.name, i), scope.Blocks, nil)
		}
		recompile := func(how string, b, prev *hop.Block) *hop.Block {
			nb, err := c.RecompileGeneric(b, meta, prev)
			if err != nil {
				t.Fatalf("%s block %d %s: %v", p.name, b.Index, how, err)
			}
			if nb.Parent != b.Parent {
				t.Fatalf("%s block %d %s: the recompiled block has the wrong Parent", p.name, b.Index, how)
			}
			return nb
		}
		for _, b := range hp.LeafBlocks() {
			if b.Parent != nil {
				nested++
			}
			recompile("into the last one", b, recompile("re-sized", b, nil))
			restore := hop.RebuildOnly()
			recompile("rebuilt", b, nil)
			restore()
		}
	}
	if nested == 0 {
		t.Fatal("no generic block lies inside a control block")
	}
}
