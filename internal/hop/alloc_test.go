package hop

import (
	"runtime"
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

// measure returns the allocations and bytes of one call of fn, each
// averaged over runs calls after a first that warms fn up.
func measure(runs int, fn func()) (allocs float64, bytes uint64) {
	allocs = testing.AllocsPerRun(runs, fn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCompileAllocs gates the allocations of compiling MLogreg and
// rebuilding its whole scope, so that a per-hop key string, a per-walk
// hash set, a per-pass read set or a per-branch table copy cannot come
// back unnoticed, and their bytes, which set how often the collector
// runs, so that a trial build that keeps its DAGs cannot either. The
// limits are the 2,766 allocations and 371,742 bytes measured once a
// build appended its blocks into one list and a loop's trial appended
// none, plus 10 % (2,880 and 376,144 before, limits 3,168 and 413,758;
// 3,016 and 386,524 before the dead-write analysis reused the build's
// storage, limits 3,318 and 427,434); 3,016 allocations and
// 388,576 bytes once trial builds kept nothing (656,103 bytes before); 3,320
// allocations once generic blocks were re-sized templates (each Compile
// of a parsed program builds its own), 4,799 while every block built from
// its statements, 4,869 before the compiler stopped building the
// transient reads and literals that folding and CSE throw away and
// linearized control-block headers, and fmt-built CSE keys, map-backed
// walks and per-hop consumer lists took 10,089.
func TestCompileAllocs(t *testing.T) {
	cc := sizeM(t, scripts.MLogreg())
	allocs, bytes := measure(10, func() { cc.run(t) })
	const limit, byteLimit = 3043, 408_916
	t.Logf("%v allocations, %d bytes", allocs, bytes)
	if allocs > limit {
		t.Errorf("compiling and rebuilding MLogreg allocates %v times, limit %d", allocs, limit)
	}
	if bytes > byteLimit {
		t.Errorf("compiling and rebuilding MLogreg allocates %d bytes, limit %d", bytes, byteLimit)
	}
}

// warmCompile returns a compile of spec over the size-M dense1000
// scenario from a table that has built every template the compile
// re-sizes.
func warmCompile(tb testing.TB, spec scripts.Spec) func() {
	tb.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, datagen.New("M", 1000, 1.0))
	s, err := (&Table{}).Parse(spec.Source)
	if err != nil {
		tb.Fatal(err)
	}
	compile := func() {
		if _, err := NewCompiler(fs, spec.Params).CompileScript(s); err != nil {
			tb.Fatalf("%s: %v", spec.Name, err)
		}
	}
	compile()
	return compile
}

// TestTemplateCompileAllocs gates the allocations and bytes of compiling
// MLogreg, and the mini-batch family, from a warm table: every template
// a compile re-sizes is built already, so a compile that builds a block
// from its statements, copies a template beyond the re-size, or keeps a
// loop's trial DAGs fails it, and so does a merge that copies the symbol
// table or a dead-write analysis that allocates its own storage. The
// limits are the values measured once a loop joined its body until its
// facts settled and a nested loop took the facts it settled in before,
// plus 10 %: MLogreg 345 allocations and 66,368 bytes (373 and 68,328
// while a nested loop built its body twice in each trial, limits 410 and
// 75,161; 430 and 70,529 before a build appended its blocks into one
// list and a loop's trial appended none, limits 473 and 77,582; 506 and
// 77,913 before the dead-write analysis reused the build's storage; 742
// allocations when templates came in, 736 and 231,736 bytes before this
// gate; 2,459 allocations from the statements), the mini-batch family
// 346 and 97,992 (364 and 99,433 before, limits 400 and 109,376; 496 and
// 104,617 before that, limits 546 and 115,079; 636 and 116,664 before
// the dead-write analysis reused the build's storage; 1,524 and 406,595
// before trial builds kept nothing).
func TestTemplateCompileAllocs(t *testing.T) {
	for _, c := range []struct {
		name             string
		specs            []scripts.Spec
		limit, byteLimit float64
	}{
		{"MLogreg", []scripts.Spec{scripts.MLogreg()}, 380, 73_005},
		{"the mini-batch family", scripts.Minibatch(), 381, 107_791},
	} {
		var compiles []func()
		for _, spec := range c.specs {
			compiles = append(compiles, warmCompile(t, spec))
		}
		allocs, bytes := measure(10, func() {
			for _, compile := range compiles {
				compile()
			}
		})
		t.Logf("%s: %v allocations, %d bytes", c.name, allocs, bytes)
		if allocs > c.limit {
			t.Errorf("compiling %s from a warm table allocates %v times, limit %v", c.name, allocs, c.limit)
		}
		if float64(bytes) > c.byteLimit {
			t.Errorf("compiling %s from a warm table allocates %d bytes, limit %v", c.name, bytes, c.byteLimit)
		}
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

// BenchmarkTemplateCompile compiles the mini-batch family at size M from
// a warm table, as the workload service compiles a job whose source it
// holds.
func BenchmarkTemplateCompile(b *testing.B) {
	var compiles []func()
	for _, spec := range scripts.Minibatch() {
		compiles = append(compiles, warmCompile(b, spec))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, compile := range compiles {
			compile()
		}
	}
}
