package matrix

import "fmt"

// Transpose returns t(a), compacted: transposing turns a matrix's rows
// into columns, which can flip the representation the estimator costs
// (a mostly-zero column vector is a row vector CSR stores smaller).
func Transpose(a *Matrix) *Matrix {
	if a.sp != nil {
		out := newCSR(a.cols, a.rows)
		// Count entries per output row (input column).
		counts := make([]int64, a.cols+1)
		for _, j := range a.sp.colIdx {
			counts[j+1]++
		}
		for i := 1; i <= a.cols; i++ {
			counts[i] += counts[i-1]
		}
		out.rowPtr = counts
		out.colIdx = make([]int, len(a.sp.colIdx))
		out.vals = make([]float64, len(a.sp.vals))
		next := make([]int64, a.cols)
		copy(next, counts[:a.cols])
		a.sp.each(func(i, j int, v float64) {
			p := next[j]
			out.colIdx[p] = i
			out.vals[p] = v
			next[j]++
		})
		return (&Matrix{rows: a.cols, cols: a.rows, sp: out}).Compact()
	}
	out := NewDense(a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			out.dense[j*a.rows+i] = a.dense[i*a.cols+j]
		}
	}
	return out.Compact()
}

// CBind concatenates matrices column-wise (DML's append).
func CBind(a, b *Matrix) *Matrix {
	if a.rows != b.rows {
		panic(fmt.Sprintf("matrix: cbind row mismatch %d vs %d", a.rows, b.rows))
	}
	out := NewDense(a.rows, a.cols+b.cols)
	ad, bd := a.ToDense(), b.ToDense()
	for i := 0; i < a.rows; i++ {
		copy(out.dense[i*out.cols:], ad.dense[i*a.cols:(i+1)*a.cols])
		copy(out.dense[i*out.cols+a.cols:], bd.dense[i*b.cols:(i+1)*b.cols])
	}
	return out.Compact()
}

// RBind concatenates matrices row-wise.
func RBind(a, b *Matrix) *Matrix {
	if a.cols != b.cols {
		panic(fmt.Sprintf("matrix: rbind col mismatch %d vs %d", a.cols, b.cols))
	}
	out := NewDense(a.rows+b.rows, a.cols)
	ad, bd := a.ToDense(), b.ToDense()
	copy(out.dense, ad.dense)
	copy(out.dense[a.rows*a.cols:], bd.dense)
	return out.Compact()
}

// Slice returns the submatrix a[r0:r1, c0:c1] with half-open, 0-based
// bounds (callers translate DML's 1-based inclusive indexing).
func Slice(a *Matrix, r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || c0 < 0 || r1 > a.rows || c1 > a.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: slice [%d:%d,%d:%d] out of %dx%d", r0, r1, c0, c1, a.rows, a.cols))
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			out.dense[(i-r0)*out.cols+(j-c0)] = a.At(i, j)
		}
	}
	return out.Compact()
}

// Diag builds a diagonal matrix from a column vector, or extracts the
// diagonal of a square matrix as a column vector (R/DML semantics).
func Diag(a *Matrix) *Matrix {
	if a.cols == 1 {
		n := a.rows
		out := NewSparse(n, n)
		for i := 0; i < n; i++ {
			if v := a.At(i, 0); v != 0 {
				out.sp.appendCell(i, i, v)
			}
		}
		out.sp.finish()
		return out
	}
	n := a.rows
	if a.cols < n {
		n = a.cols
	}
	out := NewDense(n, 1)
	for i := 0; i < n; i++ {
		out.dense[i] = a.At(i, i)
	}
	return out
}

// Seq returns the column vector (from, from+incr, ..., to) (DML's seq).
func Seq(from, to, incr float64) *Matrix {
	if incr == 0 {
		panic("matrix: seq increment must be non-zero")
	}
	n := int((to-from)/incr) + 1
	if n < 0 {
		n = 0
	}
	out := NewDense(n, 1)
	v := from
	for i := 0; i < n; i++ {
		out.dense[i] = v
		v += incr
	}
	return out
}

// Table computes the contingency table of two column vectors of equal
// length: out[a[i], b[i]] += 1 with 1-based category values, as used by the
// multinomial logistic regression indicator-matrix construction
// Y = table(seq(1,n), y). Output dimensions are the maximum observed
// categories (data dependent, hence unknown at compile time).
func Table(a, b *Matrix) *Matrix {
	if a.cols != 1 || b.cols != 1 || a.rows != b.rows {
		panic(fmt.Sprintf("matrix: table requires equal-length column vectors, got %dx%d and %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	var maxR, maxC int
	for i := 0; i < a.rows; i++ {
		r, c := int(a.At(i, 0)), int(b.At(i, 0))
		if r < 1 || c < 1 {
			panic(fmt.Sprintf("matrix: table categories must be >=1, got (%d,%d) at row %d", r, c, i))
		}
		if r > maxR {
			maxR = r
		}
		if c > maxC {
			maxC = c
		}
	}
	out := NewDense(maxR, maxC)
	for i := 0; i < a.rows; i++ {
		r, c := int(a.At(i, 0))-1, int(b.At(i, 0))-1
		out.dense[r*maxC+c]++
	}
	return out.Compact()
}
