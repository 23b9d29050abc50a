package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func denseOf(rows, cols int, vals ...float64) *Matrix {
	return NewDenseData(rows, cols, vals)
}

func TestBasicAccessors(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dims wrong")
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if got := m.Sparsity(); math.Abs(got-1.0/6) > 1e-15 {
		t.Fatalf("Sparsity = %v", got)
	}
}

func TestSparseSetAt(t *testing.T) {
	m := NewSparse(3, 3)
	m.Set(0, 1, 2)
	m.Set(2, 2, 3)
	m.Set(0, 0, 1)
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(2, 2) != 3 || m.At(1, 1) != 0 {
		t.Fatalf("sparse set/at wrong: %v", m)
	}
	m.Set(0, 1, 0) // delete
	if m.At(0, 1) != 0 || m.NNZ() != 2 {
		t.Fatalf("sparse delete failed: nnz=%d", m.NNZ())
	}
	m.Set(2, 2, 7) // update
	if m.At(2, 2) != 7 {
		t.Fatal("sparse update failed")
	}
}

func TestDenseSparseRoundtrip(t *testing.T) {
	d := denseOf(2, 3, 1, 0, 2, 0, 0, 3)
	s := d.ToSparse()
	if s.Format() != SparseCSR || s.NNZ() != 3 {
		t.Fatalf("ToSparse: format=%v nnz=%d", s.Format(), s.NNZ())
	}
	back := s.ToDense()
	if !Equal(d, back, 0) {
		t.Fatal("dense->sparse->dense not identity")
	}
}

func TestMulAllFormatCombos(t *testing.T) {
	a := denseOf(2, 3, 1, 2, 3, 4, 5, 6)
	b := denseOf(3, 2, 7, 8, 9, 10, 11, 12)
	want := denseOf(2, 2, 58, 64, 139, 154)
	combos := []struct {
		name string
		x, y *Matrix
	}{
		{"dd", a, b},
		{"sd", a.ToSparse(), b},
		{"ds", a, b.ToSparse()},
		{"ss", a.ToSparse(), b.ToSparse()},
	}
	for _, c := range combos {
		if got := Mul(c.x, c.y); !Equal(got.ToDense(), want, 1e-12) {
			t.Errorf("%s: Mul = %v, want %v", c.name, got, want)
		}
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestTSMMMatchesExplicit(t *testing.T) {
	x := Random(17, 5, 1.0, -1, 1, 42)
	want := Mul(Transpose(x), x)
	if got := TSMM(x); !Equal(got, want.ToDense(), 1e-10) {
		t.Error("dense TSMM mismatch vs explicit t(X) X")
	}
	xs := Random(17, 5, 0.3, -1, 1, 43)
	want = Mul(Transpose(xs), xs).ToDense()
	if got := TSMM(xs); !Equal(got, want, 1e-10) {
		t.Error("sparse TSMM mismatch vs explicit t(X) X")
	}
}

func TestEWBroadcast(t *testing.T) {
	a := denseOf(2, 2, 1, 2, 3, 4)
	col := denseOf(2, 1, 10, 20)
	row := denseOf(1, 2, 100, 200)
	one := denseOf(1, 1, 5)
	if got := EW(Add, a, col); !Equal(got.ToDense(), denseOf(2, 2, 11, 12, 23, 24), 0) {
		t.Errorf("col broadcast: %v", got)
	}
	if got := EW(Add, a, row); !Equal(got.ToDense(), denseOf(2, 2, 101, 202, 103, 204), 0) {
		t.Errorf("row broadcast: %v", got)
	}
	if got := EW(MulEW, a, one); !Equal(got.ToDense(), denseOf(2, 2, 5, 10, 15, 20), 0) {
		t.Errorf("scalar-matrix broadcast: %v", got)
	}
}

func TestEWComparisonOps(t *testing.T) {
	a := denseOf(1, 4, -1, 0, 1, 2)
	if got := EWScalarRight(Greater, a, 0); !Equal(got.ToDense(), denseOf(1, 4, 0, 0, 1, 1), 0) {
		t.Errorf("ppred >: %v", got)
	}
	if got := EWScalarRight(LessEq, a, 0); !Equal(got.ToDense(), denseOf(1, 4, 1, 1, 0, 0), 0) {
		t.Errorf("ppred <=: %v", got)
	}
}

func TestEWScalarSparse(t *testing.T) {
	s := denseOf(2, 2, 0, 2, 0, 4).ToSparse()
	got := EWScalarRight(MulEW, s, 3)
	if got.Format() != SparseCSR {
		t.Error("sparse * scalar should stay sparse")
	}
	if !Equal(got.ToDense(), denseOf(2, 2, 0, 6, 0, 12), 0) {
		t.Errorf("sparse scalar mul: %v", got)
	}
	// Addition breaks sparsity: zeros become 1.
	got = EWScalarRight(Add, s, 1)
	if !Equal(got.ToDense(), denseOf(2, 2, 1, 3, 1, 5), 0) {
		t.Errorf("sparse scalar add: %v", got)
	}
	got = EWScalarLeft(Sub, 10, s)
	if !Equal(got.ToDense(), denseOf(2, 2, 10, 8, 10, 6), 0) {
		t.Errorf("scalar-left sub: %v", got)
	}
}

func TestUnaryOps(t *testing.T) {
	a := denseOf(1, 3, 4, -9, 0)
	if got := Unary(Abs, a); !Equal(got.ToDense(), denseOf(1, 3, 4, 9, 0), 0) {
		t.Errorf("abs: %v", got)
	}
	if got := Unary(Sq, a); !Equal(got.ToDense(), denseOf(1, 3, 16, 81, 0), 0) {
		t.Errorf("sq: %v", got)
	}
	if got := Unary(Sign, a); !Equal(got.ToDense(), denseOf(1, 3, 1, -1, 0), 0) {
		t.Errorf("sign: %v", got)
	}
	s := denseOf(2, 2, 0, 4, 0, 16).ToSparse()
	if got := Unary(Sqrt, s); got.Format() != SparseCSR || got.At(1, 1) != 4 {
		t.Errorf("sparse sqrt: %v", got)
	}
	// Non sparse-safe op (exp) must densify: exp(0)=1.
	if got := Unary(Exp, s); got.At(0, 0) != 1 {
		t.Errorf("sparse exp of zero cell = %v, want 1", got.At(0, 0))
	}
}

// TestOperatorTable checks the one declaration of each elementwise
// operation: its name parses back to it, SparseSafe agrees with its
// scalar function at zero, and no other name parses.
func TestOperatorTable(t *testing.T) {
	for op := Sqrt; op <= Sq; op++ {
		if got, ok := ParseUnary(op.String()); !ok || got != op {
			t.Errorf("ParseUnary(%q) = %v, %v", op.String(), got, ok)
		}
		if op.SparseSafe() != (op.Apply(0) == 0) {
			t.Errorf("%s: SparseSafe %v but op(0) = %v", op, op.SparseSafe(), op.Apply(0))
		}
	}
	for op := Add; op <= Or; op++ {
		if got, ok := ParseBinary(op.String()); !ok || got != op {
			t.Errorf("ParseBinary(%q) = %v, %v", op.String(), got, ok)
		}
		keeps := true
		for _, x := range []float64{-2, 0, 0.5, 3} {
			keeps = keeps && op.Apply(x, 0) == 0 && op.Apply(0, x) == 0
		}
		if op.SparseSafe() != keeps {
			t.Errorf("%s: SparseSafe %v, zero kept in either operand %v", op, op.SparseSafe(), keeps)
		}
	}
	for _, name := range []string{"", "?", "%%", "%/%", "sqr", "-1", "rowMeans", "&&"} {
		if op, ok := ParseUnary(name); ok {
			t.Errorf("ParseUnary(%q) = %v", name, op)
		}
		if op, ok := ParseBinary(name); ok {
			t.Errorf("ParseBinary(%q) = %v", name, op)
		}
	}
	if got := (Or + 1).String(); got != "?" {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestAggregates(t *testing.T) {
	a := denseOf(2, 3, 1, 2, 3, 4, 5, 6)
	if Sum(a) != 21 {
		t.Errorf("Sum = %v", Sum(a))
	}
	if Agg(MeanAgg, a) != 3.5 {
		t.Errorf("Mean = %v", Agg(MeanAgg, a))
	}
	if Agg(MinAgg, a) != 1 || Agg(MaxAgg, a) != 6 {
		t.Error("min/max wrong")
	}
	sq := denseOf(2, 2, 1, 2, 3, 4)
	if Agg(Trace, sq) != 5 {
		t.Errorf("Trace = %v", Agg(Trace, sq))
	}
	if got := RowSums(a); !Equal(got, denseOf(2, 1, 6, 15), 0) {
		t.Errorf("RowSums = %v", got)
	}
	if got := ColSums(a); !Equal(got, denseOf(1, 3, 5, 7, 9), 0) {
		t.Errorf("ColSums = %v", got)
	}
	if got := RowMaxs(a); !Equal(got, denseOf(2, 1, 3, 6), 0) {
		t.Errorf("RowMaxs = %v", got)
	}
	if SumSq(a) != 91 {
		t.Errorf("SumSq = %v", SumSq(a))
	}
	b := denseOf(2, 3, 1, 1, 1, 1, 1, 1)
	if DotProduct(a, b) != 21 {
		t.Errorf("DotProduct = %v", DotProduct(a, b))
	}
}

func TestAggregatesSparseImplicitZero(t *testing.T) {
	s := denseOf(2, 2, 0, 5, 0, -3).ToSparse()
	if Agg(MinAgg, s) != -3 {
		t.Errorf("sparse min = %v", Agg(MinAgg, s))
	}
	if Agg(MaxAgg, s) != 5 {
		t.Errorf("sparse max = %v", Agg(MaxAgg, s))
	}
	pos := denseOf(2, 2, 0, 5, 0, 3).ToSparse()
	// Implicit zeros must participate in min.
	if Agg(MinAgg, pos) != 0 {
		t.Errorf("sparse min with implicit zeros = %v, want 0", Agg(MinAgg, pos))
	}
	if Sum(s) != 2 {
		t.Errorf("sparse sum = %v", Sum(s))
	}
}

func TestTranspose(t *testing.T) {
	a := denseOf(2, 3, 1, 2, 3, 4, 5, 6)
	want := denseOf(3, 2, 1, 4, 2, 5, 3, 6)
	if got := Transpose(a); !Equal(got, want, 0) {
		t.Errorf("dense transpose: %v", got)
	}
	s := a.ToSparse()
	if got := Transpose(s); !Equal(got.ToDense(), want, 0) {
		t.Errorf("sparse transpose: %v", got)
	}
	if got := Transpose(Transpose(s)); !Equal(got.ToDense(), a, 0) {
		t.Error("double transpose not identity")
	}
}

func TestCBindRBindSlice(t *testing.T) {
	a := denseOf(2, 2, 1, 2, 3, 4)
	b := denseOf(2, 1, 9, 8)
	cb := CBind(a, b)
	if !Equal(cb.ToDense(), denseOf(2, 3, 1, 2, 9, 3, 4, 8), 0) {
		t.Errorf("CBind = %v", cb)
	}
	rb := RBind(a, denseOf(1, 2, 7, 7))
	if !Equal(rb.ToDense(), denseOf(3, 2, 1, 2, 3, 4, 7, 7), 0) {
		t.Errorf("RBind = %v", rb)
	}
	sl := Slice(cb, 0, 2, 1, 3)
	if !Equal(sl.ToDense(), denseOf(2, 2, 2, 9, 4, 8), 0) {
		t.Errorf("Slice = %v", sl)
	}
}

func TestDiag(t *testing.T) {
	v := denseOf(3, 1, 1, 0, 3)
	d := Diag(v)
	if d.Rows() != 3 || d.Cols() != 3 || d.At(0, 0) != 1 || d.At(2, 2) != 3 || d.At(1, 1) != 0 || d.At(0, 1) != 0 {
		t.Errorf("Diag(v) = %v", d)
	}
	back := Diag(d)
	if !Equal(back.ToDense(), v, 0) {
		t.Errorf("Diag(Diag(v)) = %v", back)
	}
}

func TestSeq(t *testing.T) {
	s := Seq(1, 5, 1)
	if s.Rows() != 5 || s.At(0, 0) != 1 || s.At(4, 0) != 5 {
		t.Errorf("Seq(1,5,1) = %v", s)
	}
	s = Seq(10, 2, -4)
	if s.Rows() != 3 || s.At(2, 0) != 2 {
		t.Errorf("Seq(10,2,-4) = %v", s)
	}
}

func TestTable(t *testing.T) {
	// y has 3 classes; Y = table(seq(1,n), y) is the n x k indicator matrix.
	y := denseOf(5, 1, 1, 3, 2, 3, 1)
	yIdx := Seq(1, 5, 1)
	Y := Table(yIdx, y)
	if Y.Rows() != 5 || Y.Cols() != 3 {
		t.Fatalf("Table dims = %dx%d, want 5x3", Y.Rows(), Y.Cols())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if int(y.At(i, 0)) == j+1 {
				want = 1
			}
			if Y.At(i, j) != want {
				t.Fatalf("Y[%d,%d] = %v, want %v", i, j, Y.At(i, j), want)
			}
		}
	}
}

func TestSolve(t *testing.T) {
	// A = t(X) X, b = t(X) y with known beta.
	x := Random(50, 4, 1.0, -1, 1, 11)
	beta := denseOf(4, 1, 1, -2, 3, 0.5)
	yv := Mul(x, beta)
	a := Mul(Transpose(x), x)
	b := Mul(Transpose(x), yv)
	got, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !Equal(got, beta, 1e-8) {
		t.Errorf("Solve = %v, want %v", got, beta)
	}
}

func TestSolveSingular(t *testing.T) {
	a := denseOf(2, 2, 1, 2, 2, 4)
	if _, err := Solve(a, denseOf(2, 1, 1, 2)); err == nil {
		t.Error("expected singular-system error")
	}
	if _, err := Solve(NewDense(2, 3), NewDense(2, 1)); err == nil {
		t.Error("expected non-square error")
	}
	if _, err := Solve(NewDense(2, 2), NewDense(3, 1)); err == nil {
		t.Error("expected RHS mismatch error")
	}
}

func TestEstimateSizes(t *testing.T) {
	if DenseSize(1000, 1000) != 8_000_000 {
		t.Errorf("DenseSize = %v", DenseSize(1000, 1000))
	}
	// Sparse cheaper below threshold.
	d := EstimateSize(1_000_000, 1000, 0.01)
	if d >= DenseSize(1_000_000, 1000) {
		t.Errorf("sparse estimate %v not cheaper than dense", d)
	}
	// Column vectors always dense.
	if EstimateSize(1000, 1, 0.01) != DenseSize(1000, 1) {
		t.Error("vectors should be estimated dense")
	}
	// Dense data estimated dense.
	if EstimateSize(100, 100, 1.0) != DenseSize(100, 100) {
		t.Error("dense estimate wrong")
	}
	if EstimateSize(0, 10, 1) != 0 {
		t.Error("empty estimate should be 0")
	}
}

func TestMulSparsity(t *testing.T) {
	if got := MulSparsity(1, 1, 100); got != 1 {
		t.Errorf("dense x dense sparsity = %v", got)
	}
	got := MulSparsity(0.01, 0.01, 1000)
	want := 1 - math.Pow(1-0.0001, 1000)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("MulSparsity = %v, want %v", got, want)
	}
	if MulSparsity(0, 0.5, 10) != 0 {
		t.Error("zero sparsity should stay zero")
	}
	// Saturation for large k.
	if MulSparsity(0.1, 0.1, 1_000_000) != 1 {
		t.Error("large k should saturate to 1")
	}
}

func TestInMemorySize(t *testing.T) {
	d := NewDense(10, 10)
	if d.InMemorySize() != 800 {
		t.Errorf("dense InMemorySize = %v", d.InMemorySize())
	}
	s := NewSparse(10, 10)
	s.Set(0, 0, 1)
	if s.InMemorySize() != 12+80 {
		t.Errorf("sparse InMemorySize = %v", s.InMemorySize())
	}
}

func TestRandomProperties(t *testing.T) {
	m := Random(100, 20, 0.1, -1, 1, 1)
	if m.Format() != SparseCSR {
		t.Error("sparsity 0.1 should produce sparse matrix")
	}
	sp := m.Sparsity()
	if sp < 0.05 || sp > 0.2 {
		t.Errorf("observed sparsity %v far from 0.1", sp)
	}
	d := Random(50, 10, 1.0, 0, 1, 2)
	if d.Format() != Dense || d.NNZ() != 500 {
		t.Error("dense random wrong")
	}
	// Determinism.
	if !Equal(Random(10, 10, 0.5, 0, 1, 3).ToDense(), Random(10, 10, 0.5, 0, 1, 3).ToDense(), 0) {
		t.Error("Random not deterministic for equal seeds")
	}
	l := RandomLabels(100, 3, 4)
	for i := 0; i < 100; i++ {
		if v := l.At(i, 0); v < 1 || v > 3 || v != math.Trunc(v) {
			t.Fatalf("label %v out of range", v)
		}
	}
}

// Property: (A B)^T == B^T A^T across random shapes and formats.
func TestTransposeMulProperty(t *testing.T) {
	f := func(seed int64, n8, k8, m8 uint8, sparseA, sparseB bool) bool {
		n, k, m := int(n8%12)+1, int(k8%12)+1, int(m8%12)+1
		sa, sb := 1.0, 1.0
		if sparseA {
			sa = 0.2
		}
		if sparseB {
			sb = 0.2
		}
		a := Random(n, k, sa, -1, 1, seed)
		b := Random(k, m, sb, -1, 1, seed+1)
		lhs := Transpose(Mul(a, b)).ToDense()
		rhs := Mul(Transpose(b), Transpose(a)).ToDense()
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sum(A + B) == Sum(A) + Sum(B) for same-shaped matrices.
func TestSumLinearityProperty(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		n, m := int(n8%20)+1, int(m8%20)+1
		a := Random(n, m, 0.7, -5, 5, seed)
		b := Random(n, m, 0.7, -5, 5, seed+7)
		return math.Abs(Sum(EW(Add, a, b))-(Sum(a)+Sum(b))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sparse and dense representations agree on every kernel output.
func TestFormatAgreementProperty(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		n, m := int(n8%15)+2, int(m8%15)+2
		d := Random(n, m, 0.3, -2, 2, seed).ToDense()
		s := d.ToSparse()
		if !Equal(RowSums(d), RowSums(s), 1e-12) {
			return false
		}
		if !Equal(ColSums(d), ColSums(s), 1e-12) {
			return false
		}
		if math.Abs(Sum(d)-Sum(s)) > 1e-12 {
			return false
		}
		return Equal(Transpose(d), Transpose(s).ToDense(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	// Every kernel on a dense and a sparse operand, Mul's four dispatches,
	// EW's row, column and 1x1 broadcasts, and TSMM in both formats, each
	// against its naive per-cell oracle.
	cases := mulCases(33, 17, 21)
	cases = append(cases, operandCases("dense", dn(29, 13, 11))...)
	cases = append(cases, operandCases("sparse", sprnd(29, 13, 12))...)
	a, row, col, sp := dn(23, 11, 15), dn(1, 11, 16), dn(23, 1, 18), sprnd(23, 11, 19)
	cases = append(cases,
		kernelCase{"ew_bcast_row", EW(Sub, a, row), 23, 11, func(i, j int) float64 { return a.At(i, j) - row.At(0, j) }},
		kernelCase{"ew_bcast_col", EW(MulEW, a, col), 23, 11, func(i, j int) float64 { return a.At(i, j) * col.At(i, 0) }},
		kernelCase{"ew_bcast_scalar", EW(Add, sp, Filled(1, 1, 0.5)), 23, 11, func(i, j int) float64 { return sp.At(i, j) + 0.5 }},
		tsmmCase("tsmm_dense", dn(37, 11, 20)),
		tsmmCase("tsmm_sparse", sprnd(37, 11, 21)),
	)
	checkKernels(t, cases)
}
