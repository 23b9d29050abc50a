package hop

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
)

var update = flag.Bool("update", false, "rewrite testdata/compile.golden")

const goldenCompile = "testdata/compile.golden"

// forEachProblem compiles every script on every paper-grid scenario and
// hands each program to fn with the compiler that built it.
func forEachProblem(t testing.TB, fn func(name string, c *Compiler, hp *Program)) {
	t.Helper()
	for _, spec := range scripts.All() {
		prog, err := dml.Parse(spec.Source)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				scen := datagen.New(size, sh.Cols, sh.Sparsity)
				name := fmt.Sprintf("%s %s %s", spec.Name, size, scen.ShapeName())
				fs := hdfs.New()
				datagen.Describe(fs, scen)
				c := NewCompiler(fs, spec.Params)
				hp, err := c.Compile(prog, spec.Source)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				fn(name, c, hp)
			}
		}
	}
}

// keyHash is a short digest of p's AppendKey encoding.
func keyHash(p *Program) string {
	sum := sha256.Sum256(AppendKey(nil, p))
	return fmt.Sprintf("%x", sum[:8])
}

// TestCompileGolden pins the compiler's output on the paper grid: the
// encoding of each compiled program, the last hop ID its build allocated,
// the encoding of the scope program RebuildScope builds from every
// top-level block onwards, the encoding of every leaf block
// RecompileGeneric rebuilds, and the last hop ID after all of them. A
// change to how the compiler builds, numbers or rewrites hops shows up
// here. Regenerate with -update only when a DAG is meant to move, and
// read the diff.
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	forEachProblem(t, func(name string, c *Compiler, hp *Program) {
		fmt.Fprintf(&b, "%s: compile=%s id=%d scopes=", name, keyHash(hp), c.nextID)
		meta := writtenMeta(hp)
		for i := range hp.Blocks {
			scope, err := c.RebuildScope(hp.Blocks[i:], meta.Clone())
			if err != nil {
				t.Fatalf("%s scope %d: %v", name, i, err)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(keyHash(scope))
		}
		var leaves []*Block
		for _, lb := range hp.LeafBlocks() {
			nb, err := c.RecompileGeneric(lb, meta.Clone(), nil)
			if err != nil {
				t.Fatalf("%s recompile block %d: %v", name, lb.Index, err)
			}
			leaves = append(leaves, nb)
		}
		fmt.Fprintf(&b, " recompiled=%s id=%d\n", keyHash(&Program{Blocks: leaves, NumLeaf: len(leaves)}), c.nextID)
	})
	if *update {
		if err := os.WriteFile(goldenCompile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenCompile)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}

// TestConcurrentBuilds: compilers on separate goroutines draw their walk
// numbers from one counter and share one table's scripts and templates;
// each still builds exactly what a build alone does, and the table parses
// each source once, however many goroutines ask for it at once.
func TestConcurrentBuilds(t *testing.T) {
	specs := scripts.All()
	want := make([]string, len(specs))
	sources := make(map[string]bool)
	for i, spec := range specs {
		want[i] = keyHash(compileSpec(t, spec, testFS(1_000_000, 100)))
		sources[spec.Source] = true
	}
	tab := &Table{Trace: obs.New(false)}
	held := make([][]*Script, 4) // every script parsed, kept until the count
	var wg sync.WaitGroup
	for g := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, spec := range specs {
				s, err := tab.Parse(spec.Source)
				if err != nil {
					t.Error(err)
					return
				}
				held[g] = append(held[g], s)
				c := NewCompiler(testFS(1_000_000, 100), spec.Params)
				hp, err := c.CompileScript(s)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.RebuildScope(hp.Blocks, writtenMeta(hp)); err != nil {
					t.Error(err)
					return
				}
				if got := keyHash(hp); got != want[i] {
					t.Errorf("%s built on goroutine %d encodes %s, alone %s", spec.Name, g, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if n := tab.Trace.Metrics().Counter("compile.parses"); n != int64(len(sources)) {
		t.Errorf("the table parsed %d times for %d sources", n, len(sources))
	}
	runtime.KeepAlive(held)
}
