package rt_test

import (
	"fmt"
	"math"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/rt"
	"elasticml/internal/verify"
)

// generatedRows are the row counts a generated program's inputs are bound
// at, as opt's decision oracle binds them: small enough for CP alone, and
// large enough for MR jobs.
var generatedRows = []int64{1e4, 1e6, 1e7}

// bindInputs stages p, rebinds every input it stages as a descriptor of
// the given row count, keeping the input's column count, sparsity and
// format, and compiles p against the descriptors. The grammar writes some
// dimensions as literals, so a program may not type-check at another row
// count; the compiler then refuses it.
func bindInputs(p verify.Program, rows int64) (*hdfs.FS, *hop.Program, error) {
	staged := hdfs.New()
	p.Setup(staged)
	fs := hdfs.New()
	for _, name := range staged.List() {
		f, err := staged.Stat(name)
		if err != nil {
			return nil, nil, err
		}
		nnz := int64(math.Round(f.Sparsity() * float64(rows) * float64(f.Cols)))
		fs.PutDescriptor(name, rows, f.Cols, nnz, f.Format)
	}
	hp, err := compileGenerated(p, fs)
	return fs, hp, err
}

// compileGenerated compiles p against the inputs fs holds.
func compileGenerated(p verify.Program, fs *hdfs.FS) (*hop.Program, error) {
	prog, err := dml.Parse(p.Source)
	if err != nil {
		return nil, err
	}
	return hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
}

// TestRecompileReadSetGenerated is TestRecompileReadSet's oracle on the
// generated streams `make verify-corpus` runs (25 programs of the fuzz
// stream and 10 of the loop stream, seed 1): each program is simulated
// with its inputs bound at every row count of generatedRows, and run in
// value mode on its staged inputs, and every recompile of those runs from
// every live variable must encode as one from the block's read set alone.
func TestRecompileReadSetGenerated(t *testing.T) {
	var ps []verify.Program
	for i := 0; i < 25; i++ {
		ps = append(ps, verify.FuzzProgram(1, i))
	}
	for i := 0; i < 10; i++ {
		ps = append(ps, verify.FuzzLoopProgram(1, i))
	}
	var name string
	recompiles := 0
	defer rt.CheckReadSets(func(b, _ *hop.Block, diff error) {
		recompiles++
		if diff != nil {
			t.Errorf("%s block %d (lines %d-%d): %v", name, b.Index, b.FirstLine, b.LastLine, diff)
		}
	})()
	cc := conf.DefaultCluster()
	run := func(mode rt.Mode, fs *hdfs.FS, hp *hop.Program) {
		res := conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf)
		if err := rt.New(mode, fs, cc, res).Run(lop.Select(hp, cc, res)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, p := range ps {
		for _, rows := range generatedRows {
			name = fmt.Sprintf("%s at %d rows", p.Name, rows)
			if fs, hp, err := bindInputs(p, rows); err == nil {
				run(rt.ModeSim, fs, hp)
			}
		}
		name = p.Name + " in value mode"
		fs := hdfs.New()
		p.Setup(fs)
		hp, err := compileGenerated(p, fs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run(rt.ModeValue, fs, hp)
	}
	if recompiles == 0 {
		t.Fatal("no run recompiled a block: the oracle shows nothing")
	}
	t.Logf("%d recompiles checked", recompiles)
}
