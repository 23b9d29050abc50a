package hop

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
)

// compileSteps compiles source with the table's script (or from the
// statements, with tab nil and statementsOnly set) and returns the
// encoding of the program, of the scope program RebuildScope builds from
// every top-level block onwards, and of every leaf RecompileGeneric
// rebuilds against the metadata the program writes (a for loop's variable
// unknown), in that order, each named by its step.
func compileSteps(tab *Table, source string, params map[string]interface{}, fs *hdfs.FS) (names []string, keys [][]byte, err error) {
	s, err := tab.Parse(source)
	if err != nil {
		return nil, nil, err
	}
	c := NewCompiler(fs, params)
	c.statementsOnly = tab == nil
	hp, err := c.CompileScript(s)
	if err != nil {
		return nil, nil, err
	}
	names, keys = append(names, "compile"), append(keys, AppendKey(nil, hp))
	meta := writtenMeta(hp)
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Var != "" {
			meta[b.Var] = VarMeta{}
		}
	})
	for i := range hp.Blocks {
		scope, err := c.RebuildScope(hp.Blocks[i:], meta.Clone())
		if err != nil {
			return nil, nil, fmt.Errorf("scope %d: %w", i, err)
		}
		names, keys = append(names, fmt.Sprintf("scope %d", i)), append(keys, AppendKey(nil, scope))
	}
	for _, lb := range hp.LeafBlocks() {
		nb, err := c.RecompileGeneric(lb, meta.Clone(), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("recompile block %d: %w", lb.Index, err)
		}
		leaf := &Program{Blocks: []*Block{nb}, NumLeaf: 1}
		names, keys = append(names, fmt.Sprintf("recompile block %d", lb.Index)), append(keys, AppendKey(nil, leaf))
	}
	return names, keys, nil
}

// TestTemplateMatchesBuild: on every problem TestCompileGolden visits and
// the mini-batch family on every scenario, the compiled program, each
// scope rebuild and each leaf recompile encode the same whether generic
// blocks re-size their templates or build from their statements, and no
// block falls back to its statements: a block that calls read() or reads
// a $ parameter has a template too. One table serves every scenario of a
// script, so a template built for one input size is re-sized to all the
// others. Programs that do not compile fail with the same error either
// way, and where the re-size must refuse, the block falls back.
func TestTemplateMatchesBuild(t *testing.T) {
	type problem struct {
		name, source string
		params       map[string]interface{}
		fs           *hdfs.FS
		fails        bool
		// refuses: some re-size of a template refuses, and its block
		// builds from its statements.
		refuses bool
	}
	var probs []problem
	for _, spec := range append(scripts.All(), scripts.Minibatch()...) {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				scen := datagen.New(size, sh.Cols, sh.Sparsity)
				fs := hdfs.New()
				datagen.Describe(fs, scen)
				probs = append(probs, problem{fmt.Sprintf("%s %s %s", spec.Name, size, scen.ShapeName()), spec.Source, spec.Params, fs, false, false})
			}
		}
	}
	// In the loop, Y is 10x10 and X 1000x10 (X %*% Y would agree); the
	// statements build the error, a template's DAG has no sizes.
	const mismatch = `X = read($X); Y = t(X) %*% X;
for (i in 1:2) { Z = Y %*% X; write(Z, "/o"); }
`
	for _, n := range []int64{10, 1000} {
		probs = append(probs, problem{fmt.Sprintf("mismatch n=%d", n), mismatch, map[string]interface{}{"X": "/data/X"}, testFS(n, 10), n != 10, n != 10})
	}
	// A template does not know x, so it must not take !!x for x: with x
	// known to be 5, the statements fold it to 1.
	const notNot = "x = 5;\nfor (i in 1:2) { y = !!x; z = -(-x); print(y + z); }\n"
	probs = append(probs, problem{"not not", notNot, nil, testFS(10, 10), false, false})
	// The loop body reads x as a scalar or as a matrix, from one table.
	const kinds = `if ($a > 0) { x = 1; } else { x = matrix(0, rows=2, cols=2); }
for (i in 1:2) { y = x * 2; print(sum(y)); }
`
	for _, a := range []float64{1, 0} {
		probs = append(probs, problem{fmt.Sprintf("kinds a=%g", a), kinds, map[string]interface{}{"a": a}, testFS(10, 10), false, false})
	}
	// An undefined parameter and a missing file fail as the statements
	// fail.
	const undefined = "X = read($X); y = $nope; print(sum(X) + y);\n"
	probs = append(probs, problem{"undefined parameter", undefined, map[string]interface{}{"X": "/data/X"}, testFS(10, 10), true, true})
	const missing = "X = read($X); print(sum(X));\n"
	probs = append(probs, problem{"missing file", missing, map[string]interface{}{"X": "/data/missing"}, testFS(10, 10), true, true})
	// A template reads $p unknown; with p = 2 the statements rewrite
	// X ^ 2 to sq(X) and the sum to sumsq(X), so the re-size refuses.
	const pow = "X = read($X); Y = X ^ $p; print(sum(Y));\n"
	for _, p := range []float64{2, 3} {
		probs = append(probs, problem{fmt.Sprintf("pow p=%g", p), pow, map[string]interface{}{"X": "/data/X", "p": p}, testFS(10, 10), false, p == 2})
	}
	tab := &Table{Trace: obs.New(false)}
	var held []*Script // keeps every script warm for the problems after
	for _, p := range probs {
		s, err := tab.Parse(p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		held = append(held, s)
		before := tab.Trace.Metrics().Counter("compile.template_fallbacks")
		names, got, err := compileSteps(tab, p.source, p.params, p.fs)
		fallbacks := tab.Trace.Metrics().Counter("compile.template_fallbacks") - before
		_, want, wantErr := compileSteps(nil, p.source, p.params, p.fs)
		if (wantErr != nil) != p.fails {
			t.Fatalf("%s: the build from statements fails with %v", p.name, wantErr)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: from templates %v, from statements %v", p.name, err, wantErr)
			continue
		}
		if (fallbacks > 0) != p.refuses {
			t.Errorf("%s: %d blocks built from their statements", p.name, fallbacks)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: %s differs from the build from statements", p.name, names[i])
			}
		}
	}
	runtime.KeepAlive(held)
}

// TestLoopNestsCompileLinearly: a loop joins its body until the facts
// settle, and the build keeps the facts each loop settled in, so a later
// pass of an enclosing loop whose entry implies them builds no nested
// body again. A nest of k while or for loops around a = a + 1, between
// a = 1 and print(a), re-sizes k + 3 templates for k up to 2 and 5 from
// there on: the innermost body twice in the outermost loop's first trial
// (a = 1, then a unknown, which it settles in), once kept, and the two
// statements outside. A loop nested in a trial that joined its body twice
// on every entry would re-size 2^k + 3.
func TestLoopNestsCompileLinearly(t *testing.T) {
	for k := 1; k <= dml.MaxLoopNesting; k++ {
		for _, kind := range []string{"while", "for"} {
			var src strings.Builder
			src.WriteString("a = 1;\n")
			for i := 0; i < k; i++ {
				if kind == "while" {
					src.WriteString("while (a > 2) {\n")
				} else {
					fmt.Fprintf(&src, "for (i%d in 1:a) {\n", i)
				}
			}
			src.WriteString("a = a + 1;\n" + strings.Repeat("}\n", k) + "print(a);\n")
			tab := &Table{Trace: obs.New(false)}
			s, err := tab.Parse(src.String())
			if err != nil {
				t.Fatalf("%d %s loops: %v", k, kind, err)
			}
			if _, err := NewCompiler(hdfs.New(), nil).CompileScript(s); err != nil {
				t.Fatalf("%d %s loops: %v", k, kind, err)
			}
			if got, want := tab.Trace.Metrics().Counter("compile.template_resizes"), int64(min(k+3, 5)); got != want {
				t.Errorf("%d nested %s loops re-size %d templates, want %d", k, kind, got, want)
			}
		}
	}
}

// TestTableForgetsFreedScripts: the table returns the script it holds while
// a compiler holds it, and once nothing does, the collector frees it and
// the table forgets its source.
func TestTableForgetsFreedScripts(t *testing.T) {
	src := scripts.LinregDS().Source
	tab := &Table{}
	s, err := tab.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(testFS(1000, 10), scripts.LinregDS().Params)
	if _, err := c.CompileScript(s); err != nil {
		t.Fatal(err)
	}
	if again, _ := tab.Parse(src); again != s {
		t.Fatal("a held script was parsed again")
	}
	runtime.KeepAlive(c)
	s, c = nil, nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		tab.mu.Lock()
		_, kept := tab.scripts[src]
		tab.mu.Unlock()
		if !kept {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("the table still holds a source no compiler holds")
}
