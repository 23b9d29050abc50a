// Package matrix implements the in-memory matrix runtime underlying the
// declarative ML system: dense (row-major) and sparse (CSR) matrices with
// the linear-algebra and statistical kernels required by DML programs, plus
// the size/sparsity arithmetic shared with the compiler's memory estimator.
package matrix

import (
	"fmt"
	"math"
)

// SparsityThreshold is the nnz ratio below which matrices are stored and
// estimated in sparse format. SystemML uses a similar heuristic combined
// with a minimum column count.
const SparsityThreshold = 0.4

// Format identifies the physical representation of a matrix.
type Format int

// Physical matrix formats.
const (
	Dense Format = iota
	SparseCSR
)

func (f Format) String() string {
	if f == SparseCSR {
		return "sparse"
	}
	return "dense"
}

// Matrix is a two-dimensional double-precision matrix in either dense
// row-major or sparse CSR representation. The zero value is an empty 0x0
// dense matrix.
type Matrix struct {
	rows, cols int
	dense      []float64 // len rows*cols when format==Dense
	sp         *csr      // non-nil when format==SparseCSR
}

// NewDense returns a zero-initialized dense rows x cols matrix.
func NewDense(rows, cols int) *Matrix {
	checkDims(rows, cols)
	return &Matrix{rows: rows, cols: cols, dense: make([]float64, rows*cols)}
}

// NewDenseData wraps the given row-major data (not copied) as a dense
// matrix. It panics if len(data) != rows*cols.
func NewDenseData(rows, cols int, data []float64) *Matrix {
	checkDims(rows, cols)
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, dense: data}
}

// NewSparse returns an empty sparse rows x cols matrix.
func NewSparse(rows, cols int) *Matrix {
	checkDims(rows, cols)
	return &Matrix{rows: rows, cols: cols, sp: newCSR(rows, cols)}
}

// Filled returns a dense matrix with every cell set to v.
func Filled(rows, cols int, v float64) *Matrix {
	m := NewDense(rows, cols)
	for i := range m.dense {
		m.dense[i] = v
	}
	return m
}

func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Format returns the physical representation of the matrix.
func (m *Matrix) Format() Format {
	if m.sp != nil {
		return SparseCSR
	}
	return Dense
}

// At returns the cell (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	if m.sp != nil {
		return m.sp.at(i, j)
	}
	return m.dense[i*m.cols+j]
}

// Set assigns the cell (i, j). Setting cells of a sparse matrix is intended
// for construction in row order; random-order sets are supported but slow.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	if m.sp != nil {
		m.sp.set(i, j, v)
		return
	}
	m.dense[i*m.cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// NNZ returns the number of non-zero cells.
func (m *Matrix) NNZ() int64 {
	if m.sp != nil {
		return m.sp.nnz()
	}
	var n int64
	for _, v := range m.dense {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns nnz / (rows*cols); 1.0 for empty matrices.
func (m *Matrix) Sparsity() float64 {
	cells := int64(m.rows) * int64(m.cols)
	if cells == 0 {
		return 1.0
	}
	return float64(m.NNZ()) / float64(cells)
}

// Clone returns a deep copy preserving the representation.
func (m *Matrix) Clone() *Matrix {
	if m.sp != nil {
		return &Matrix{rows: m.rows, cols: m.cols, sp: m.sp.clone()}
	}
	d := make([]float64, len(m.dense))
	copy(d, m.dense)
	return &Matrix{rows: m.rows, cols: m.cols, dense: d}
}

// ToDense returns a dense copy of the matrix (or the receiver if already
// dense).
func (m *Matrix) ToDense() *Matrix {
	if m.sp == nil {
		return m
	}
	out := NewDense(m.rows, m.cols)
	m.sp.each(func(i, j int, v float64) {
		out.dense[i*m.cols+j] = v
	})
	return out
}

// ToSparse returns a CSR copy of the matrix (or the receiver if already
// sparse).
func (m *Matrix) ToSparse() *Matrix {
	if m.sp != nil {
		return m
	}
	out := newCSR(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if v := m.dense[i*m.cols+j]; v != 0 {
				out.appendCell(i, j, v)
			}
		}
	}
	out.finish()
	return &Matrix{rows: m.rows, cols: m.cols, sp: out}
}

// Compact converts the matrix to its preferred representation based on the
// actual sparsity (PreferSparse: below SparsityThreshold and CSR actually
// smaller — the same predicate the memory estimator costs).
func (m *Matrix) Compact() *Matrix {
	if PreferSparse(int64(m.rows), int64(m.cols), m.Sparsity()) {
		return m.ToSparse()
	}
	return m.ToDense()
}

// Equal reports whether two matrices have identical dimensions and cells
// within the given absolute tolerance.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices fully and large matrices as a summary.
func (m *Matrix) String() string {
	if int64(m.rows)*int64(m.cols) > 64 {
		return fmt.Sprintf("Matrix(%dx%d, %s, nnz=%d)", m.rows, m.cols, m.Format(), m.NNZ())
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", m.At(i, j))
		}
	}
	return s + "]"
}
