package matrix

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// dn builds a fully dense random operand; sprnd builds a forced-CSR sparse
// one.
func dn(r, c int, seed int64) *Matrix {
	if r == 0 || c == 0 {
		return NewDense(r, c)
	}
	return Random(r, c, 1.0, -1, 1, seed).ToDense()
}

func sprnd(r, c int, seed int64) *Matrix {
	if r == 0 || c == 0 {
		return NewSparse(r, c)
	}
	return Random(r, c, 0.2, -1, 1, seed).ToSparse()
}

// kernelCase is one kernel result and the naive per-cell oracle it must
// equal exactly. Every kernel accumulates a cell in the oracle's order
// (ascending inner index; skipped zero terms add only a signed zero, which
// leaves a sum unchanged), so no case needs a tolerance.
type kernelCase struct {
	name       string
	got        *Matrix
	rows, cols int
	want       func(i, j int) float64
}

func checkKernels(t *testing.T, cases []kernelCase) {
	t.Helper()
	for _, c := range cases {
		if c.got.Rows() != c.rows || c.got.Cols() != c.cols {
			t.Errorf("%s: dims %dx%d, want %dx%d", c.name, c.got.Rows(), c.got.Cols(), c.rows, c.cols)
			continue
		}
		for i := 0; i < c.rows; i++ {
			for j := 0; j < c.cols; j++ {
				if got, want := c.got.At(i, j), c.want(i, j); got != want {
					t.Errorf("%s[%d,%d] = %v, want %v", c.name, i, j, got, want)
				}
			}
		}
	}
}

// mulCases runs Mul's four density dispatches over an m x k by k x n
// product.
func mulCases(m, k, n int) []kernelCase {
	var cases []kernelCase
	for _, f := range []struct {
		tag  string
		a, b *Matrix
	}{
		{"dd", dn(m, k, 1), dn(k, n, 2)},
		{"sd", sprnd(m, k, 3), dn(k, n, 4)},
		{"ds", dn(m, k, 5), sprnd(k, n, 6)},
		{"ss", sprnd(m, k, 7), sprnd(k, n, 8)},
	} {
		a, b := f.a, f.b
		cases = append(cases, kernelCase{fmt.Sprintf("mul_%s_%dx%dx%d", f.tag, m, k, n), Mul(a, b), m, n, func(i, j int) float64 {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			return s
		}})
	}
	return cases
}

// operandCases runs every single-operand kernel on a: the row and column
// aggregates, unary ops (sparse-safe and not), scalar ops on either side
// and an equal-shape EW.
func operandCases(tag string, a *Matrix) []kernelCase {
	r, c := a.Rows(), a.Cols()
	cell := func(name string, got *Matrix, f func(v float64) float64) kernelCase {
		return kernelCase{name + "_" + tag, got, r, c, func(i, j int) float64 { return f(a.At(i, j)) }}
	}
	return []kernelCase{
		{"rowsums_" + tag, RowSums(a), r, 1, func(i, _ int) float64 {
			var s float64
			for j := 0; j < c; j++ {
				s += a.At(i, j)
			}
			return s
		}},
		{"colsums_" + tag, ColSums(a), 1, c, func(_, j int) float64 {
			var s float64
			for i := 0; i < r; i++ {
				s += a.At(i, j)
			}
			return s
		}},
		{"rowmaxs_" + tag, RowMaxs(a), r, 1, func(i, _ int) float64 {
			best := math.Inf(-1)
			for j := 0; j < c; j++ {
				best = math.Max(best, a.At(i, j))
			}
			return best
		}},
		cell("unary_sqrt", Unary(Sqrt, Unary(Abs, a)), func(v float64) float64 { return math.Sqrt(math.Abs(v)) }),
		cell("unary_exp", Unary(Exp, a), math.Exp),
		cell("ewsr_mul", EWScalarRight(MulEW, a, 1.75), func(v float64) float64 { return v * 1.75 }),
		cell("ewsr_add", EWScalarRight(Add, a, -0.5), func(v float64) float64 { return v + -0.5 }),
		cell("ewsl_div", EWScalarLeft(Div, 2, EWScalarRight(Add, a, 3)), func(v float64) float64 { return 2 / (v + 3) }),
		cell("ew_add", EW(Add, a, EWScalarRight(MulEW, a.ToDense(), 0.25)), func(v float64) float64 { return v + v*0.25 }),
	}
}

// tsmmCase checks TSMM(x) against t(x) %*% x summed over ascending rows.
func tsmmCase(name string, x *Matrix) kernelCase {
	k := x.Cols()
	return kernelCase{name, TSMM(x), k, k, func(r, c int) float64 {
		var s float64
		for i := 0; i < x.Rows(); i++ {
			s += x.At(i, r) * x.At(i, c)
		}
		return s
	}}
}

func TestDegenerateShapes(t *testing.T) {
	// 1x1 matrices flow through every kernel.
	one := NewDenseData(1, 1, []float64{3})
	if got := Mul(one, one).At(0, 0); got != 9 {
		t.Errorf("1x1 mul = %v", got)
	}
	if got := Transpose(one).At(0, 0); got != 3 {
		t.Errorf("1x1 transpose = %v", got)
	}
	if Sum(one) != 3 || SumSq(one) != 9 {
		t.Error("1x1 aggregates wrong")
	}
	// Zero-row and zero-column matrices.
	empty := NewDense(0, 5)
	if empty.NNZ() != 0 {
		t.Error("empty nnz")
	}
	if got := RowSums(empty); got.Rows() != 0 || got.Cols() != 1 {
		t.Errorf("RowSums of empty = %dx%d", got.Rows(), got.Cols())
	}
	if !math.IsNaN(Agg(MinAgg, empty)) {
		t.Error("min of empty should be NaN")
	}
	if empty.Sparsity() != 1.0 {
		t.Error("empty sparsity should default to 1")
	}
	// Vector TSMM.
	v := NewDenseData(3, 1, []float64{1, 2, 3})
	if got := TSMM(v).At(0, 0); got != 14 {
		t.Errorf("vector TSMM = %v", got)
	}
	// Every kernel on empty, 1-row and 1-col operands, and Mul's four
	// dispatches with a degenerate outer or inner dimension.
	var cases []kernelCase
	for _, d := range [][3]int{{1, 17, 21}, {33, 17, 1}, {7, 1, 5}, {0, 4, 3}, {4, 3, 0}} {
		cases = append(cases, mulCases(d[0], d[1], d[2])...)
	}
	cases = append(cases, operandCases("empty", NewDense(0, 0))...)
	cases = append(cases, operandCases("row1", dn(1, 13, 13))...)
	cases = append(cases, operandCases("col1", sprnd(29, 1, 14))...)
	cases = append(cases, tsmmCase("tsmm_col1", dn(37, 1, 22)))
	checkKernels(t, cases)
}

func TestNegativeDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative dims")
		}
	}()
	NewDense(-1, 3)
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(5, 5, 1) },
		func() { Slice(m, 0, 3, 0, 1) },
		func() { NewDenseData(2, 2, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSeqEdge(t *testing.T) {
	if s := Seq(5, 1, 1); s.Rows() != 0 {
		t.Errorf("ascending seq over descending range = %d rows", s.Rows())
	}
	if s := Seq(2, 2, 1); s.Rows() != 1 || s.At(0, 0) != 2 {
		t.Errorf("single-point seq wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("seq with zero increment should panic")
		}
	}()
	Seq(1, 5, 0)
}

func TestBroadcastMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected broadcast mismatch panic")
		}
	}()
	EW(Add, NewDense(2, 3), NewDense(3, 2))
}

// Property: TSMM output is symmetric positive semidefinite-ish
// (symmetry and non-negative diagonal).
func TestTSMMSymmetryProperty(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		n, m := int(n8%20)+1, int(m8%8)+1
		x := Random(n, m, 0.6, -3, 3, seed)
		g := TSMM(x)
		for i := 0; i < m; i++ {
			if g.At(i, i) < -1e-12 {
				return false
			}
			for j := i + 1; j < m; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: solving a well-conditioned random SPD system reproduces the
// planted solution.
func TestSolveRoundTripProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%8) + 2
		x := Random(4*n, n, 1.0, -1, 1, seed)
		a := TSMM(x)
		// Ridge for conditioning.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		want := Random(n, 1, 1.0, -2, 2, seed+1)
		b := Mul(a, want)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return Equal(got, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CBind then Slice recovers the left operand.
func TestCBindSliceInverseProperty(t *testing.T) {
	f := func(seed int64, n8, m8, k8 uint8) bool {
		n, m, k := int(n8%10)+1, int(m8%10)+1, int(k8%10)+1
		a := Random(n, m, 0.7, -1, 1, seed)
		b := Random(n, k, 0.7, -1, 1, seed+1)
		c := CBind(a, b)
		return Equal(Slice(c, 0, n, 0, m).ToDense(), a.ToDense(), 0) &&
			Equal(Slice(c, 0, n, m, m+k).ToDense(), b.ToDense(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
