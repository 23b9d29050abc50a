package hop

import (
	"bytes"
	"fmt"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/scripts"
)

// lastLeaf compiles src over testFS(1000, 10) and returns its compiler and
// last generic block.
func lastLeaf(t *testing.T, src string) (*Compiler, *Block) {
	t.Helper()
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c := NewCompiler(testFS(1000, 10), map[string]interface{}{"X": "/data/X", "Y": "/data/y"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	leaves := hp.LeafBlocks()
	return c, leaves[len(leaves)-1]
}

// TestResizeFallsBack recompiles the last block of small scripts against
// metadata under which the rebuild does, or does not, more than re-size:
// the re-size must give up exactly in the first case, and RecompileGeneric
// must return what the rebuild returns either way.
func TestResizeFallsBack(t *testing.T) {
	// The if splits the blocks; s, u and P reach the last block unknown.
	const head = `X = read($X); y = read($Y);
s = sum(X); u = sum(y);
P = table(seq(1, nrow(X), 1), y);
if (s > 0) { print("split"); }
`
	mat := func(r, c int64) VarMeta { return VarMeta{IsMatrix: true, Rows: r, Cols: c, NNZ: r * c} }
	num := func(v float64) VarMeta { return VarMeta{Known: true, Val: v} }
	X, P := mat(1000, 10), mat(1000, 4)
	cases := []struct {
		name, body string
		meta       SymTab
		resized    bool
	}{
		{"scalar folds", "Y = X * s; write(Y, \"/o\");", SymTab{"X": X, "s": num(2)}, true},
		{"x*1", "Y = X * s; write(Y, \"/o\");", SymTab{"X": X, "s": num(1)}, false},
		{"1*x", "Y = s * X; write(Y, \"/o\");", SymTab{"X": X, "s": num(1)}, false},
		{"x^1", "Y = X ^ s; write(Y, \"/o\");", SymTab{"X": X, "s": num(1)}, false},
		{"x^2", "Y = X ^ s; write(Y, \"/o\");", SymTab{"X": X, "s": num(2)}, false},
		{"x^3", "Y = X ^ s; write(Y, \"/o\");", SymTab{"X": X, "s": num(3)}, true},
		{"x+0", "Y = X + s; write(Y, \"/o\");", SymTab{"X": X, "s": num(0)}, false},
		{"0+x", "Y = s + X; write(Y, \"/o\");", SymTab{"X": X, "s": num(0)}, false},
		{"scalar *1", "v = u * s; print(v);", SymTab{"u": num(3), "s": num(1)}, true},
		{"unknown scalar", "Y = X * s; write(Y, \"/o\");", SymTab{"X": X, "s": {}}, true},
		{"CSE", "A = X + s; B = X + u; Z = A * B; write(Z, \"/o\");", SymTab{"X": X, "s": num(2), "u": num(2)}, false},
		{"no CSE", "A = X + s; B = X + u; Z = A * B; write(Z, \"/o\");", SymTab{"X": X, "s": num(2), "u": num(3)}, true},
		{"CSE over literals", "A = matrix(s, rows=3, cols=3); B = matrix(u, rows=3, cols=3); write(A + B, \"/o\");",
			SymTab{"s": num(4), "u": num(4)}, false},
		{"shared literal", "A = X + s; B = X * 5; write(A + B, \"/o\");", SymTab{"X": X, "s": num(5)}, true},
		{"nrow folds, transpose fuses", "T = t(P); k = nrow(T); G = T %*% X; write(G, \"/o\");",
			SymTab{"P": P, "X": X}, true},
		{"undefined", "Y = X * s; write(Y, \"/o\");", SymTab{"X": X}, false},
		{"kind change", "Y = X * s; write(Y, \"/o\");", SymTab{"X": X, "s": mat(1000, 10)}, false},
		{"dimension mismatch", "G = t(X) %*% P; write(G, \"/o\");", SymTab{"X": mat(7, 3), "P": P}, false},
	}
	for _, tc := range cases {
		c, b := lastLeaf(t, head+tc.body)
		_, resized := c.Fork(c.FS).resize(b, tc.meta, nil)
		if resized != tc.resized {
			t.Errorf("%s: re-sized %v, want %v", tc.name, resized, tc.resized)
		}
		nb, err := c.RecompileGeneric(b, tc.meta, nil)
		rb, rerr := c.Fork(c.FS).rebuild(b, tc.meta)
		switch {
		case fmt.Sprint(err) != fmt.Sprint(rerr):
			t.Errorf("%s: RecompileGeneric gives %v, the rebuild %v", tc.name, err, rerr)
		case err == nil && !bytes.Equal(leafKey(nb), leafKey(rb)):
			t.Errorf("%s: RecompileGeneric differs from the rebuild", tc.name)
		case err == nil:
			checkLinearized(t, tc.name, []*Block{nb})
		}
	}
}

func leafKey(b *Block) []byte {
	return AppendKey(nil, &Program{Blocks: []*Block{b}, NumLeaf: 1})
}

// minibatchInner is MinibatchLR's inner loop body over the size-S dense1000
// scenario, with the live variables of its first mini-batch.
func minibatchInner(tb testing.TB) (*Compiler, *Block, SymTab) {
	tb.Helper()
	spec := scripts.MinibatchLR()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		tb.Fatal(err)
	}
	fs := hdfs.New()
	sc := datagen.New("S", 1000, 1.0)
	datagen.Describe(fs, sc)
	c := NewCompiler(fs, spec.Params)
	hp, err := c.Compile(prog, spec.Source)
	if err != nil {
		tb.Fatal(err)
	}
	meta := writtenMeta(hp)
	meta["start"], meta["end"] = VarMeta{Known: true, Val: 1}, VarMeta{Known: true, Val: float64(sc.Rows() / 4)}
	meta["step"] = VarMeta{Known: true, Val: 0.1}
	for _, b := range hp.LeafBlocks() {
		if as, ok := b.Src.Stmts[0].(*dml.Assign); ok && as.Target == "Xb" && b.Recompile {
			return c, b, meta
		}
	}
	tb.Fatal("MinibatchLR has no inner block")
	return nil, nil, nil
}

// TestRecompileAllocs gates the allocations of re-sizing one mini-batch
// inner block, so that a per-hop allocation, a per-recompile map or a
// rebuild from source cannot come back unnoticed. Into a new buffer the
// re-size allocates 7 times, the rebuild it replaces 121
// (BenchmarkRecompile); the limit leaves room for 2 more. Into the buffer
// of the block the last recompile returned, as the runtime recompiles a
// block on each execution, it allocates nothing.
func TestRecompileAllocs(t *testing.T) {
	c, b, meta := minibatchInner(t)
	if _, resized := c.resize(b, meta, nil); !resized {
		t.Fatal("the inner block does not re-size")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.RecompileGeneric(b, meta, nil); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 9
	if allocs > limit {
		t.Errorf("recompiling the mini-batch inner block allocates %v times, limit %d", allocs, limit)
	}
	var prev *Block
	warm := testing.AllocsPerRun(20, func() {
		var err error
		if prev, err = c.RecompileGeneric(b, meta, prev); err != nil {
			t.Fatal(err)
		}
	})
	if warm > 0 {
		t.Errorf("recompiling the mini-batch inner block into its last buffer allocates %v times, want 0", warm)
	}
}

// BenchmarkRecompile recompiles MinibatchLR's inner block once per op, by
// the re-size into a new buffer, by the re-size into the last recompile's
// buffer, and by the rebuild from source it replaced.
func BenchmarkRecompile(b *testing.B) {
	c, blk, meta := minibatchInner(b)
	var prev *Block
	for _, path := range []struct {
		name string
		fn   func() (*Block, error)
	}{
		{"resize", func() (*Block, error) { return c.RecompileGeneric(blk, meta, nil) }},
		{"resize-warm", func() (nb *Block, err error) {
			nb, err = c.RecompileGeneric(blk, meta, prev)
			prev = nb
			return nb, err
		}},
		{"rebuild", func() (*Block, error) { return c.rebuild(blk, meta) }},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := path.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
