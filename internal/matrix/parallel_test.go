package matrix

import (
	"math"
	"testing"

	"elasticml/internal/obs"
)

// withWorkers sets the kernel degree of parallelism for one test and
// restores the previous value afterwards.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(prev) })
}

// runAt evaluates f under the given worker count and restores the old one.
func runAt(workers int, f func() *Matrix) *Matrix {
	prev := Parallelism()
	SetParallelism(workers)
	defer SetParallelism(prev)
	return f()
}

// sameBits asserts the two matrices are byte-identical: same shape, same
// representation, and bitwise-equal payloads (NOT approximate equality —
// the deterministic reduction contract promises the exact float64 bits the
// sequential loop produces, for any worker count).
func sameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", name, got.rows, got.cols, want.rows, want.cols)
	}
	if (got.sp == nil) != (want.sp == nil) {
		t.Fatalf("%s: format %v, want %v", name, got.Format(), want.Format())
	}
	if got.sp == nil {
		for i, v := range got.dense {
			if math.Float64bits(v) != math.Float64bits(want.dense[i]) {
				t.Fatalf("%s: dense[%d] = %x, want %x", name, i, math.Float64bits(v), math.Float64bits(want.dense[i]))
			}
		}
		return
	}
	if len(got.sp.colIdx) != len(want.sp.colIdx) {
		t.Fatalf("%s: nnz %d, want %d", name, len(got.sp.colIdx), len(want.sp.colIdx))
	}
	for i, p := range got.sp.rowPtr {
		if p != want.sp.rowPtr[i] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", name, i, p, want.sp.rowPtr[i])
		}
	}
	for i, c := range got.sp.colIdx {
		if c != want.sp.colIdx[i] {
			t.Fatalf("%s: colIdx[%d] = %d, want %d", name, i, c, want.sp.colIdx[i])
		}
	}
	for i, v := range got.sp.vals {
		if math.Float64bits(v) != math.Float64bits(want.sp.vals[i]) {
			t.Fatalf("%s: vals[%d] = %x, want %x", name, i, math.Float64bits(v), math.Float64bits(want.sp.vals[i]))
		}
	}
}

// dn builds a fully dense random operand; sp builds a forced-CSR sparse one.
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

// parallelKernelCases enumerates every parallelized kernel over dense,
// sparse, empty, 1-row, and 1-col operands. Each case is a closure so the
// same inputs are re-evaluated under different worker counts.
func parallelKernelCases() map[string]func() *Matrix {
	cases := map[string]func() *Matrix{}

	// Mul: all four density dispatches, plus degenerate shapes.
	type dims struct{ m, k, n int }
	for _, d := range []dims{{33, 17, 21}, {1, 17, 21}, {33, 17, 1}, {7, 1, 5}, {0, 4, 3}, {4, 3, 0}} {
		d := d
		cases[spfName("mul_dd", d.m, d.k, d.n)] = func() *Matrix { return Mul(dn(d.m, d.k, 1), dn(d.k, d.n, 2)) }
		cases[spfName("mul_sd", d.m, d.k, d.n)] = func() *Matrix { return Mul(sprnd(d.m, d.k, 3), dn(d.k, d.n, 4)) }
		cases[spfName("mul_ds", d.m, d.k, d.n)] = func() *Matrix { return Mul(dn(d.m, d.k, 5), sprnd(d.k, d.n, 6)) }
		cases[spfName("mul_ss", d.m, d.k, d.n)] = func() *Matrix { return Mul(sprnd(d.m, d.k, 7), sprnd(d.k, d.n, 8)) }
	}

	// Single-operand kernels over the shape/density grid.
	type shaped struct {
		tag string
		mk  func() *Matrix
	}
	operands := []shaped{
		{"dense", func() *Matrix { return dn(29, 13, 11) }},
		{"sparse", func() *Matrix { return sprnd(29, 13, 12) }},
		{"empty", func() *Matrix { return NewDense(0, 0) }},
		{"row1", func() *Matrix { return dn(1, 13, 13) }},
		{"col1", func() *Matrix { return sprnd(29, 1, 14) }},
	}
	for _, op := range operands {
		op := op
		cases["rowsums_"+op.tag] = func() *Matrix { return RowSums(op.mk()) }
		cases["colsums_"+op.tag] = func() *Matrix { return ColSums(op.mk()) }
		cases["rowmaxs_"+op.tag] = func() *Matrix { return RowMaxs(op.mk()) }
		cases["unary_sqrt_"+op.tag] = func() *Matrix { return Unary(Sqrt, Unary(Abs, op.mk())) }
		cases["unary_exp_"+op.tag] = func() *Matrix { return Unary(Exp, op.mk()) }
		cases["ewsr_mul_"+op.tag] = func() *Matrix { return EWScalarRight(MulEW, op.mk(), 1.75) }
		cases["ewsr_add_"+op.tag] = func() *Matrix { return EWScalarRight(Add, op.mk(), -0.5) }
		cases["ewsl_div_"+op.tag] = func() *Matrix { return EWScalarLeft(Div, 2.0, EWScalarRight(Add, op.mk(), 3)) }
		cases["ew_add_"+op.tag] = func() *Matrix {
			a := op.mk()
			return EW(Add, a, EWScalarRight(MulEW, a.ToDense(), 0.25))
		}
	}

	// EW broadcast paths: matrix (+) row vector / col vector / 1x1.
	cases["ew_bcast_row"] = func() *Matrix { return EW(Sub, dn(23, 11, 15), dn(1, 11, 16)) }
	cases["ew_bcast_col"] = func() *Matrix { return EW(MulEW, dn(23, 11, 17), dn(23, 1, 18)) }
	cases["ew_bcast_scalar"] = func() *Matrix { return EW(Add, sprnd(23, 11, 19), Filled(1, 1, 0.5)) }

	// TSMM, dense and sparse.
	cases["tsmm_dense"] = func() *Matrix { return TSMM(dn(37, 11, 20)) }
	cases["tsmm_sparse"] = func() *Matrix { return TSMM(sprnd(37, 11, 21)) }
	cases["tsmm_col1"] = func() *Matrix { return TSMM(dn(37, 1, 22)) }
	return cases
}

func spfName(base string, m, k, n int) string {
	return base + "_" + itoa(m) + "x" + itoa(k) + "x" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestParallelKernelsMatchSequential cross-checks every parallelized kernel
// against its sequential counterpart (worker count 1 takes the exact
// original loop path in parRange) and asserts byte-identical results for
// worker counts 1, 2, and 7 — the deterministic-reduction contract.
func TestParallelKernelsMatchSequential(t *testing.T) {
	for name, f := range parallelKernelCases() {
		ref := runAt(1, f)
		for _, w := range []int{2, 7} {
			got := runAt(w, f)
			sameBits(t, name+"@"+itoa(w), got, ref)
		}
	}
}

// TestParallelKernelsStressRepeat re-runs a compute-heavy subset many times
// under high worker counts so the race detector sees real pool contention.
func TestParallelKernelsStressRepeat(t *testing.T) {
	withWorkers(t, 8)
	a := dn(64, 48, 31)
	b := sprnd(48, 52, 32)
	ref := runAt(1, func() *Matrix { return Mul(a, b) })
	for i := 0; i < 10; i++ {
		sameBits(t, "mul_stress", Mul(a, b), ref)
		sameBits(t, "tsmm_stress", runAt(8, func() *Matrix { return TSMM(a) }), runAt(1, func() *Matrix { return TSMM(a) }))
	}
}

// TestNestedParallelKernels exercises kernels invoked from inside pool
// workers (nested parRange must not deadlock: submission is non-blocking
// and the caller always participates).
func TestNestedParallelKernels(t *testing.T) {
	withWorkers(t, 4)
	a := dn(40, 16, 41)
	b := dn(16, 8, 42)
	ref := runAt(1, func() *Matrix { return Mul(a, b) })
	results := make([]*Matrix, 8)
	parRange(len(results), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = Mul(a, b)
		}
	})
	for i, r := range results {
		sameBits(t, "nested"+itoa(i), r, ref)
	}
}

func TestSetParallelismClamps(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(0)
	if got := Parallelism(); got != 1 {
		t.Errorf("SetParallelism(0) -> %d, want 1", got)
	}
	SetParallelism(-3)
	if got := Parallelism(); got != 1 {
		t.Errorf("SetParallelism(-3) -> %d, want 1", got)
	}
	SetParallelism(1 << 20)
	if got := Parallelism(); got != maxParallelism() {
		t.Errorf("SetParallelism(huge) -> %d, want cap %d", got, maxParallelism())
	}
}

// TestParRangePanicPropagates: a panic inside a parallel chunk must
// resurface on the calling goroutine (rt recovers it into a KernelError).
func TestParRangePanicPropagates(t *testing.T) {
	withWorkers(t, 4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in parallel chunk was swallowed")
		}
	}()
	parRange(256, 1, func(lo, hi int) {
		if lo >= 128 {
			panic("boom")
		}
	})
	t.Fatal("unreachable")
}

// TestParRangePanicChunkAccounting pins the executed-chunk fix: a panic
// abandons the remaining chunks, and the pool counters must report only the
// chunks that actually ran, not the planned count.
func TestParRangePanicChunkAccounting(t *testing.T) {
	withWorkers(t, 4)
	const n = 256
	_, before, _ := PoolStats()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic not propagated")
			}
		}()
		parRange(n, 1, func(lo, hi int) {
			if lo == n/2 {
				panic("boom")
			}
		})
	}()
	_, after, _ := PoolStats()
	executed := after - before
	if executed >= n {
		t.Errorf("counted %d chunks, but the panic abandoned the range (planned %d)", executed, n)
	}
	if executed < 0 {
		t.Errorf("negative chunk delta %d", executed)
	}
}

func TestPoolStatsAndMetrics(t *testing.T) {
	withWorkers(t, 4)
	m := obs.NewMetrics()
	SetMetrics(m)
	defer SetMetrics(nil)
	k0, c0, _ := PoolStats()
	a := dn(64, 32, 51)
	_ = Mul(a, dn(32, 24, 52))
	k1, c1, _ := PoolStats()
	if k1 <= k0 {
		t.Errorf("pool kernel counter did not advance: %d -> %d", k0, k1)
	}
	if c1 <= c0 {
		t.Errorf("pool chunk counter did not advance: %d -> %d", c0, c1)
	}
	if got := m.Counter("matrix.pool.kernels"); got <= 0 {
		t.Errorf("metrics counter matrix.pool.kernels = %d, want > 0", got)
	}
}
