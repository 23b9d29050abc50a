package hop

import (
	"math"
	"strings"
	"testing"

	"elasticml/internal/dml"
)

func TestForLoopCompilation(t *testing.T) {
	fs := testFS(100, 10)
	src := `
X = read($X);
acc = matrix(0, rows=10, cols=1);
for (i in 2:6) {
  acc = acc + t(X) %*% rowSums(X) * i;
}
parfor (j in 1:4) {
  acc = acc + j;
}
write(acc, "/out/acc");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	var fors []*Block
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Kind == dml.ForBlockKind {
			fors = append(fors, b)
		}
	})
	if len(fors) != 2 {
		t.Fatalf("got %d for blocks", len(fors))
	}
	if fors[0].KnownIters != 5 {
		t.Errorf("for 2:6 KnownIters = %d, want 5", fors[0].KnownIters)
	}
	if fors[0].Parallel {
		t.Error("plain for marked parallel")
	}
	if !fors[1].Parallel || fors[1].KnownIters != 4 {
		t.Errorf("parfor flags wrong: parallel=%v iters=%d", fors[1].Parallel, fors[1].KnownIters)
	}
	// Loop variable is usable (scalar) inside the body without error.
}

func TestRebuildScope(t *testing.T) {
	fs := testFS(1000, 10)
	src := `
X = read($X);
y = read($Y);
Y = table(seq(1, nrow(X), 1), y);
k = ncol(Y);
B = matrix(0, rows=ncol(X), cols=k);
i = 0;
while (i < 3) {
  G = t(X) %*% (Y - X %*% B);
  B = B + 0.1 * G;
  i = i + 1;
}
write(B, "/out/B");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(fs, map[string]interface{}{"X": "/data/X", "Y": "/data/y"})
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the full program against runtime metadata with a concrete
	// class count: the unknowns disappear.
	meta := SymTab{
		"X": {IsMatrix: true, Rows: 1000, Cols: 10, NNZ: 10000},
		"y": {IsMatrix: true, Rows: 1000, Cols: 1, NNZ: 1000},
		"Y": {IsMatrix: true, Rows: 1000, Cols: 4, NNZ: 1000},
		"k": {Known: true, Val: 4},
		"B": {IsMatrix: true, Rows: 10, Cols: 4, NNZ: 40},
		"i": {Known: true, Val: 0},
	}
	// The scope starts after the table block (indices 1..end), as runtime
	// re-optimization would.
	scopeBlocks := hp.Blocks[1:]
	scope, err := comp.RebuildScope(scopeBlocks, meta)
	if err != nil {
		t.Fatalf("RebuildScope: %v", err)
	}
	if scope.NumLeaf == 0 {
		t.Fatal("empty scope program")
	}
	for i, lb := range scope.LeafBlocks() {
		if lb.Index != i {
			t.Errorf("leaf %d has index %d", i, lb.Index)
		}
	}
	// With known metadata no scope block needs recompilation.
	unknowns := 0
	WalkBlocks(scope.Blocks, func(b *Block) {
		if b.Recompile {
			unknowns++
		}
	})
	if unknowns != 0 {
		t.Errorf("%d scope blocks still unknown after rebuild", unknowns)
	}
}

func TestStringersAndHelpers(t *testing.T) {
	kinds := []Kind{KindRead, KindWrite, KindTRead, KindTWrite, KindLit,
		KindDataGen, KindSeq, KindUnary, KindBinary, KindAggUnary, KindMatMul,
		KindReorg, KindAppend, KindIndex, KindLeftIndex, KindTable, KindDiag,
		KindSolve, KindTernaryAgg, KindCast, KindPrint, KindStop}
	for _, k := range kinds {
		if k.String() == "?" {
			t.Errorf("Kind %d unnamed", k)
		}
	}
	h := &Hop{Kind: KindMatMul, Op: "%*%", DataType: Matrix, Rows: 3, Cols: 4,
		NNZ: 12, OutMem: 96, OpMem: 200}
	if !strings.Contains(h.String(), "3x4") {
		t.Errorf("Hop.String = %q", h.String())
	}
	if InfiniteMem(100) {
		t.Error("finite mem misclassified")
	}
	UpdateFromRuntime(h, 5, 6, 30)
	if h.Rows != 5 || h.Cols != 6 || h.OutMem == 96 {
		t.Errorf("UpdateFromRuntime did not refresh: %+v", h)
	}
	// Scalar hops are untouched.
	s := &Hop{Kind: KindLit, DataType: Scalar}
	UpdateFromRuntime(s, 5, 6, 30)
	if s.Rows == 5 {
		t.Error("UpdateFromRuntime should ignore scalars")
	}
}

func TestScalarUnaryFolding(t *testing.T) {
	fs := testFS(10, 10)
	src := `
a = sqrt(16) + abs(0 - 3) + exp(0) + log(1) + round(2.6) + floor(2.6) + ceil(2.2) + sign(0 - 7) + sign(4) + sign(0);
print(a);
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(fs, nil)
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	// Everything folds: 4+3+1+0+3+2+3-1+1+0 = 16.
	found := false
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindLit && math.Abs(h.Value-16) < 1e-12 {
				found = true
			}
		})
	})
	if !found {
		t.Error("scalar unary chain did not fold to 16")
	}
}

func TestScalarBinaryFolding(t *testing.T) {
	fs := testFS(10, 10)
	src := `
a = min(3, 5) + max(3, 5) + (2 < 3) + (2 <= 2) + (3 > 2) + (3 >= 4) + (2 == 2) + (2 != 2);
b = (1 & 1) + (1 | 0) + 7 / 2 + 2 ^ 3;
print(a + b);
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(fs, nil)
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	// a = 3+5+1+1+1+0+1+0 = 12; b = 1+1+3.5+8 = 13.5; total 25.5.
	found := false
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindLit && math.Abs(h.Value-25.5) < 1e-12 {
				found = true
			}
		})
	})
	if !found {
		t.Error("scalar binary chain did not fold to 25.5")
	}
}

func TestCallStmtErrors(t *testing.T) {
	fs := testFS(10, 10)
	cases := []string{
		`print(1, 2);`,
		`stop();`,
		`write(x);`,
		`X = read($X); write(X, 3);`,
		`frob(1);`,
	}
	for _, src := range cases {
		prog, err := dml.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		comp := NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
		if _, err := comp.Compile(prog, src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestMaxDimBroadcastInference(t *testing.T) {
	fs := testFS(100, 10)
	// Broadcast with one unknown side: the known extent dominates.
	src := `
X = read($X);
y = read($Y);
Y = table(seq(1, nrow(X), 1), y);
Z = Y + rowSums(X);
write(Z, "/out/Z");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(fs, map[string]interface{}{"X": "/data/X", "Y": "/data/y"})
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	// Z's transient write is a dead matrix store (only the persistent
	// write consumes it), so inspect the write root.
	var z *Hop
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindWrite && h.Name == "/out/Z" {
				z = h
			}
		})
	})
	if z == nil {
		t.Fatal("no Z")
	}
	if z.Rows != 100 {
		t.Errorf("Z rows = %d, want 100 (known side dominates)", z.Rows)
	}
	if z.Cols != Unknown {
		t.Errorf("Z cols = %d, want unknown (table width)", z.Cols)
	}
}
