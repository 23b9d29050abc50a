package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

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
