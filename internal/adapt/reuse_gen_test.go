package adapt

import (
	"fmt"
	"math"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/verify"
)

// generatedProblem is a program of a generated stream with every input it
// stages rebound as a descriptor of rows rows, keeping the input's column
// count, sparsity and format, as opt's decision oracle binds them.
type generatedProblem struct {
	p    verify.Program
	rows int64
}

func (g generatedProblem) String() string { return fmt.Sprintf("%s at %d rows", g.p.Name, g.rows) }

func (g generatedProblem) compile(t testing.TB) (*hdfs.FS, *hop.Program) {
	t.Helper()
	fs, hp, err := g.bind()
	if err != nil {
		t.Fatalf("%s: %v", g, err)
	}
	return fs, hp
}

// bind stages and compiles g. The grammar writes some dimensions as
// literals, so a program may not type-check at another row count; the
// compiler then refuses it.
func (g generatedProblem) bind() (*hdfs.FS, *hop.Program, error) {
	staged := hdfs.New()
	g.p.Setup(staged)
	fs := hdfs.New()
	for _, name := range staged.List() {
		f, err := staged.Stat(name)
		if err != nil {
			return nil, nil, err
		}
		nnz := int64(math.Round(f.Sparsity() * float64(g.rows) * float64(f.Cols)))
		fs.PutDescriptor(name, g.rows, f.Cols, nnz, f.Format)
	}
	prog, err := dml.Parse(g.p.Source)
	if err != nil {
		return nil, nil, err
	}
	hp, err := hop.NewCompiler(fs, g.p.Params).Compile(prog, g.p.Source)
	return fs, hp, err
}

// TestReoptReuseMatchesFreshGenerated is TestReoptReuseMatchesFresh's
// oracle on the generated streams `make verify-corpus` runs (25 programs
// of the fuzz stream and 10 of the loop stream, seed 1), each simulated
// from its optimized configuration with its inputs bound at 1e4, 1e6 and
// 1e7 rows: the run reusing the kept rebuild and search must run and
// decide as one that searches afresh on every consult.
func TestReoptReuseMatchesFreshGenerated(t *testing.T) {
	var ps []verify.Program
	for i := 0; i < 25; i++ {
		ps = append(ps, verify.FuzzProgram(1, i))
	}
	for i := 0; i < 10; i++ {
		ps = append(ps, verify.FuzzLoopProgram(1, i))
	}
	cc := conf.DefaultCluster()
	problems, consults, reuses, migrations := 0, 0, 0, 0
	for _, p := range ps {
		for _, rows := range []int64{1e4, 1e6, 1e7} {
			g := generatedProblem{p, rows}
			if _, _, err := g.bind(); err != nil {
				continue
			}
			_, hp := g.compile(t)
			for _, res := range []conf.Resources{optimized(t, g), conf.NewResources(cc.MinHeap(), cc.MinHeap(), hp.NumLeaf)} {
				rec := reuseMatchesFresh(t, g, res, nil)
				problems++
				consults += len(rec.consults)
				reuses += rec.ad.Stats.ReoptReuses
				migrations += rec.ad.Stats.Migrations
			}
		}
	}
	if consults == 0 {
		t.Fatal("no run consulted the adapter: the oracle shows nothing")
	}
	t.Logf("%d runs, %d consults, %d answered by the kept search, %d migrations", problems, consults, reuses, migrations)
}
