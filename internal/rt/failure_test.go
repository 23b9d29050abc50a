package rt

import (
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/scripts"
)

// TestInputDeletedBetweenCompileAndRun: the file system losing an input
// after compilation surfaces as a runtime error, not a panic.
func TestInputDeletedBetweenCompileAndRun(t *testing.T) {
	fs := hdfs.New()
	fs.PutMatrix("/data/X", matrix.Random(20, 4, 1, 0, 1, 1))
	fs.PutMatrix("/data/y", matrix.Random(20, 1, 1, 0, 1, 2))
	spec := scripts.LinregDS()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/data/X"); err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	err = ip.Run(lop.Select(hp, conf.DefaultCluster(), res))
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("expected missing-file error, got %v", err)
	}
}

// TestSingularSystemSurfacesError: solve() on a rank-deficient system
// fails cleanly in value mode.
func TestSingularSystemSurfacesError(t *testing.T) {
	fs := hdfs.New()
	// X with a duplicated column makes t(X)X singular.
	x := matrix.NewDense(20, 2)
	for i := 0; i < 20; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, float64(i)) // duplicate
	}
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", matrix.Random(20, 1, 1, 0, 1, 3))
	spec := scripts.LinregDS()
	spec.Params["reg"] = float64(0) // no ridge rescue
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	err = ip.Run(lop.Select(hp, conf.DefaultCluster(), res))
	if err == nil || !strings.Contains(err.Error(), "singular") {
		t.Errorf("expected singular-system error, got %v", err)
	}
}

// TestAdapterFailureIsNonFatal: an adapter returning nil (e.g. its
// re-optimization failed) leaves execution running under the current
// configuration.
func TestAdapterFailureIsNonFatal(t *testing.T) {
	fs := hdfs.New()
	n, m := int64(1_000_000), int64(100)
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	spec := scripts.MLogreg()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf)
	ip := New(ModeSim, fs, conf.DefaultCluster(), res)
	ip.SimTableCols = 200
	ip.Adapter = adapterFunc(func(*AdaptContext) *AdaptDecision { return nil })
	if err := ip.Run(lop.Select(hp, conf.DefaultCluster(), res)); err != nil {
		t.Fatalf("nil adapter decision must not abort: %v", err)
	}
	if ip.Stats.Migrations != 0 {
		t.Error("nil decisions must not migrate")
	}
	if ip.Res.CP != 512*conf.MB {
		t.Error("nil decisions must not change resources")
	}
}

// TestRecompileWithCorruptMetadata: dynamic recompilation against
// inconsistent variable metadata fails with an error, not a panic.
func TestRecompileWithCorruptMetadata(t *testing.T) {
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 100, 10, 1000, hdfs.BinaryBlock)
	src := `
X = read($X);
y = read($X);
Y = table(seq(1, nrow(X), 1), y);
G = t(X) %*% Y;
write(G, "/out/G");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: X with mismatched dims for the matmul.
	meta := hop.SymTab{
		"X": {IsMatrix: true, Rows: 7, Cols: 3, NNZ: 21},
		"y": {IsMatrix: true, Rows: 100, Cols: 1, NNZ: 100},
		"Y": {IsMatrix: true, Rows: 100, Cols: 5, NNZ: 100},
	}
	var target *hop.Block
	hop.WalkBlocks(hp.Blocks, func(b *hop.Block) {
		if target == nil && b.Kind == dml.GenericBlock && len(b.Src.Stmts) > 0 {
			if as, ok := b.Src.Stmts[0].(*dml.Assign); ok && as.Target == "G" {
				target = b
			}
		}
	})
	if target == nil {
		t.Fatal("no G block")
	}
	if _, err := comp.RecompileGeneric(target, meta, nil); err == nil {
		t.Error("expected dimension-mismatch error from recompilation")
	}
}
