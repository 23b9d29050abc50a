package matrix

import (
	"testing"

	"elasticml/internal/conf"
)

// TestSizeOverflowSaturates: estimates for absurdly large matrices must
// saturate at MaxInt64 bytes instead of wrapping to negative values (a
// negative "size" would pass every memory-budget comparison and admit
// plans that can never run).
func TestSizeOverflowSaturates(t *testing.T) {
	const huge = int64(3_000_000_000) // 3e9 x 3e9 dense = 7.2e19 B > MaxInt64
	if got := DenseSize(huge, huge); got != maxSizeBytes {
		t.Errorf("DenseSize(huge) = %v, want saturation at %v", got, maxSizeBytes)
	}
	if got := SparseSize(huge, huge, 1.0); got != maxSizeBytes {
		t.Errorf("SparseSize(huge, 1.0) = %v, want saturation at %v", got, maxSizeBytes)
	}
	if got := EstimateSize(huge, huge, 1.0); got <= 0 {
		t.Errorf("EstimateSize(huge) = %v, must stay positive", got)
	}
	// A huge but representable sparse estimate must not saturate.
	if got := SparseSize(huge, huge, 1e-12); got <= 0 || got == maxSizeBytes {
		t.Errorf("SparseSize(huge, 1e-12) = %v, want finite positive", got)
	}
}

func TestSizeNonPositiveDims(t *testing.T) {
	for _, f := range []func() conf.Bytes{
		func() conf.Bytes { return DenseSize(0, 5) },
		func() conf.Bytes { return DenseSize(5, -1) },
		func() conf.Bytes { return SparseSize(-2, 5, 0.1) },
		func() conf.Bytes { return EstimateSize(0, 0, 0.5) },
	} {
		if got := f(); got != 0 {
			t.Errorf("size of empty/invalid matrix = %v, want 0", got)
		}
	}
}

// TestEstimateMatchesRuntimeRepresentation: the optimizer's EstimateSize
// must pick the same representation (and therefore the same footprint)
// that the runtime's Compact actually materializes — the two previously
// disagreed for skinny matrices where CSR is under the sparsity threshold
// but larger than dense.
func TestEstimateMatchesRuntimeRepresentation(t *testing.T) {
	cases := []struct {
		rows, cols int
		sparsity   float64
	}{
		{10, 2, 0.35},   // under threshold but CSR bigger than dense
		{100, 100, 0.1}, // genuinely sparse
		{50, 50, 0.9},   // dense
		{1000, 1, 0.01}, // column vector: CSR never smaller
		{1, 64, 0.05},   // row vector
	}
	for _, tc := range cases {
		m := NewDense(tc.rows, tc.cols)
		nnz := int(tc.sparsity * float64(tc.rows*tc.cols))
		placed := 0
		for i := 0; i < tc.rows && placed < nnz; i++ {
			for j := 0; j < tc.cols && placed < nnz; j++ {
				m.Set(i, j, float64(placed+1))
				placed++
			}
		}
		c := m.Compact()
		est := EstimateSize(int64(tc.rows), int64(tc.cols), c.Sparsity())
		if got := c.InMemorySize(); got != est {
			t.Errorf("%dx%d s=%.2f: runtime %v (format %v) vs estimate %v",
				tc.rows, tc.cols, c.Sparsity(), got, c.Format(), est)
		}
		wantSparse := PreferSparse(int64(tc.rows), int64(tc.cols), c.Sparsity())
		if (c.Format() == SparseCSR) != wantSparse {
			t.Errorf("%dx%d s=%.2f: Compact chose %v, PreferSparse says sparse=%v",
				tc.rows, tc.cols, c.Sparsity(), c.Format(), wantSparse)
		}
	}
}

// TestPreferSparseRequiresSmaller: the predicate must demand both the
// sparsity threshold AND an actual byte win.
func TestPreferSparseRequiresSmaller(t *testing.T) {
	if PreferSparse(10, 2, 0.35) {
		t.Error("PreferSparse(10x2, 0.35): CSR is 164B vs 160B dense, must prefer dense")
	}
	if PreferSparse(1000, 1, 0.01) {
		t.Error("PreferSparse(nx1): CSR is never smaller for column vectors")
	}
	if !PreferSparse(100, 100, 0.1) {
		t.Error("PreferSparse(100x100, 0.1): CSR is 4x smaller, must prefer sparse")
	}
	if PreferSparse(100, 100, 0.5) {
		t.Error("PreferSparse above threshold must prefer dense")
	}
}

// TestReshapingKernelsCompact: t() and colSums turn columns into a row, so
// their result can prefer the other representation than their input. Each
// must return what the estimator costs for it, in both input formats: a
// mostly-zero column vector's transpose and colSums are CSR row vectors,
// and a one-entry CSR row vector's transpose is a dense column.
func TestReshapingKernelsCompact(t *testing.T) {
	col := NewDense(40, 1)
	col.Set(3, 0, 2)
	row := NewDense(1, 40)
	row.Set(0, 3, 2)
	sq := NewDense(40, 40)
	sq.Set(3, 5, 2)
	for name, m := range map[string]*Matrix{
		"t(col)":        Transpose(col),
		"t(csr row)":    Transpose(row.ToSparse()),
		"t(csr square)": Transpose(sq.ToSparse()),
		"colSums(col)":  ColSums(col),
		"colSums(sq)":   ColSums(sq),
		"colSums(csr)":  ColSums(sq.ToSparse()),
	} {
		est := EstimateSize(int64(m.Rows()), int64(m.Cols()), m.Sparsity())
		if got := m.InMemorySize(); got != est {
			t.Errorf("%s: %dx%d %v takes %v, the estimator costs %v", name, m.Rows(), m.Cols(), m.Format(), got, est)
		}
	}
}
