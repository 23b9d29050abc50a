package rt

import (
	"bytes"
	"fmt"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

// TestRecompileReadSet simulates every paper script on XS and S in all four
// data shapes and rebuilds each recompiled leaf block twice: from the
// read-set table the run hands RecompileGeneric, and, on a fork of the
// run's compiler, from a snapshot of every live variable, as the runtime
// did before blocks carried their read set. The two must encode alike, so a
// name the build looks up but Block.Reads misses fails here.
func TestRecompileReadSet(t *testing.T) {
	defer func(f func(*Interp, *hop.Block) (*hop.Block, error)) { recompile = f }(recompile)
	var name string
	checked := map[string]int{}
	recompile = func(ip *Interp, b *hop.Block) (*hop.Block, error) {
		fork := ip.Compiler.Fork(ip.FS)
		nb, err := ip.Compiler.RecompileGeneric(b, ip.readMeta(b))
		full, fullErr := fork.RecompileGeneric(b, ip.snapshotMeta())
		checked[name]++
		if fmt.Sprint(err) != fmt.Sprint(fullErr) {
			t.Errorf("%s block %d: read set gives %v, full snapshot %v", name, b.Index, err, fullErr)
		} else if err == nil && !bytes.Equal(blockKey(nb), blockKey(full)) {
			t.Errorf("%s block %d (lines %d-%d): the read-set rebuild differs from the full snapshot's",
				name, b.Index, b.FirstLine, b.LastLine)
		}
		return nb, err
	}
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	runs := 0
	for _, spec := range scripts.All() {
		for _, size := range []string{"XS", "S"} {
			for _, sh := range datagen.Shapes() {
				sc := datagen.New(size, sh.Cols, sh.Sparsity)
				name = spec.Name + " " + sc.String()
				fs := hdfs.New()
				datagen.Describe(fs, sc)
				plan, comp := compilePlan(t, spec, fs, res)
				ip := New(ModeSim, fs, conf.DefaultCluster(), res)
				ip.Compiler = comp
				if err := ip.Run(plan); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runs++
				if checked[name] != ip.Stats.Recompiles {
					t.Fatalf("%s: %d recompiles, %d checked", name, ip.Stats.Recompiles, checked[name])
				}
			}
		}
	}
	total := 0
	for _, n := range checked {
		total += n
	}
	if total == 0 {
		t.Fatal("no run recompiled a block: the test shows nothing")
	}
	t.Logf("%d recompiled blocks checked over %d runs, %d of which recompiled", total, runs, len(checked))
}

// blockKey encodes one block as the optimizer sees it.
func blockKey(b *hop.Block) []byte {
	return hop.AppendKey(nil, &hop.Program{Blocks: []*hop.Block{b}, NumLeaf: 1})
}
