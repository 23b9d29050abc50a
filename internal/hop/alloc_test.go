package hop

import (
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/scripts"
)

// coldCompile is the compiler's work on the cold paths for one script:
// the initial Compile and one RebuildScope of the whole program, as the §4
// adapter rebuilds a scope before it searches.
type coldCompile struct {
	spec scripts.Spec
	c    *Compiler
	prog *dml.Program
	meta SymTab
}

// sizeM prepares spec's cold compile over the size-M dense1000 scenario.
func sizeM(tb testing.TB, spec scripts.Spec) *coldCompile {
	tb.Helper()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		tb.Fatalf("%s: %v", spec.Name, err)
	}
	fs := hdfs.New()
	datagen.Describe(fs, datagen.New("M", 1000, 1.0))
	cc := &coldCompile{spec: spec, c: NewCompiler(fs, spec.Params), prog: prog}
	hp, err := cc.c.Compile(prog, spec.Source)
	if err != nil {
		tb.Fatalf("%s: %v", spec.Name, err)
	}
	cc.meta = writtenMeta(hp)
	return cc
}

func (cc *coldCompile) run(tb testing.TB) {
	hp, err := cc.c.Compile(cc.prog, cc.spec.Source)
	if err != nil {
		tb.Fatalf("%s: %v", cc.spec.Name, err)
	}
	if _, err := cc.c.RebuildScope(hp.Blocks, cc.meta.Clone()); err != nil {
		tb.Fatalf("%s rebuild: %v", cc.spec.Name, err)
	}
}

// TestCompileAllocs gates the allocations of compiling MLogreg and
// rebuilding its whole scope, so that a per-hop key string, a per-walk
// hash set, a per-pass read set or a per-branch table copy cannot come
// back unnoticed. The limit is the 3,320 measured once generic blocks
// were re-sized templates (each Compile of a parsed program builds its
// own), plus 10 %; 4,799 while every block built from its statements,
// 4,869 before the compiler stopped building the transient reads and
// literals that folding and CSE throw away and linearized control-block
// headers, and fmt-built CSE keys, map-backed walks and per-hop consumer
// lists took 10,089.
func TestCompileAllocs(t *testing.T) {
	cc := sizeM(t, scripts.MLogreg())
	allocs := testing.AllocsPerRun(10, func() { cc.run(t) })
	const limit = 3652
	if allocs > limit {
		t.Errorf("compiling and rebuilding MLogreg allocates %v times, limit %d", allocs, limit)
	}
}

// TestTemplateCompileAllocs gates the allocations of compiling MLogreg
// from a warm table: every template it re-sizes is built already, so a
// compile that builds a templated block from its statements again, or
// copies a template beyond the re-size, fails it. The limit is the 742
// measured when templates came in, plus 10 %; the same compile from the
// statements allocated 2,459.
func TestTemplateCompileAllocs(t *testing.T) {
	spec := scripts.MLogreg()
	fs := hdfs.New()
	datagen.Describe(fs, datagen.New("M", 1000, 1.0))
	tab := &Table{}
	s, err := tab.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		if _, err := NewCompiler(fs, spec.Params).CompileScript(s); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	allocs := testing.AllocsPerRun(10, compile)
	const limit = 816
	if allocs > limit {
		t.Errorf("compiling MLogreg from a warm table allocates %v times, limit %d", allocs, limit)
	}
}

// BenchmarkCompile compiles every script at size M and rebuilds each
// whole program once.
func BenchmarkCompile(b *testing.B) {
	var ccs []*coldCompile
	for _, spec := range scripts.All() {
		ccs = append(ccs, sizeM(b, spec))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, cc := range ccs {
			cc.run(b)
		}
	}
}
