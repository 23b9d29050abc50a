package matrix

import (
	"fmt"
	"math"
)

// AggOp identifies a full or partial aggregation.
type AggOp int

// Aggregation operations.
const (
	SumAgg AggOp = iota
	MinAgg
	MaxAgg
	MeanAgg
	Trace
)

func (op AggOp) String() string {
	switch op {
	case SumAgg:
		return "sum"
	case MinAgg:
		return "min"
	case MaxAgg:
		return "max"
	case MeanAgg:
		return "mean"
	case Trace:
		return "trace"
	}
	return "?"
}

// Sum returns the sum of all cells.
func Sum(a *Matrix) float64 {
	var s float64
	if a.sp != nil {
		for _, v := range a.sp.vals {
			s += v
		}
		return s
	}
	for _, v := range a.dense {
		s += v
	}
	return s
}

// Agg computes a full aggregate to a scalar.
func Agg(op AggOp, a *Matrix) float64 {
	switch op {
	case SumAgg:
		return Sum(a)
	case MeanAgg:
		cells := float64(a.rows) * float64(a.cols)
		if cells == 0 {
			return math.NaN()
		}
		return Sum(a) / cells
	case MinAgg, MaxAgg:
		if a.rows == 0 || a.cols == 0 {
			return math.NaN()
		}
		best := a.At(0, 0)
		visit := func(v float64) {
			if op == MinAgg && v < best || op == MaxAgg && v > best {
				best = v
			}
		}
		if a.sp != nil {
			if a.sp.nnz() < int64(a.rows)*int64(a.cols) {
				visit(0) // implicit zeros participate
			}
			for _, v := range a.sp.vals {
				visit(v)
			}
		} else {
			for _, v := range a.dense {
				visit(v)
			}
		}
		return best
	case Trace:
		n := a.rows
		if a.cols < n {
			n = a.cols
		}
		var s float64
		for i := 0; i < n; i++ {
			s += a.At(i, i)
		}
		return s
	}
	panic(fmt.Sprintf("matrix: unknown aggregate %d", op))
}

// RowSums returns the rows x 1 vector of per-row sums.
func RowSums(a *Matrix) *Matrix {
	out := NewDense(a.rows, 1)
	if a.sp != nil {
		for i := 0; i < a.rows; i++ {
			a.sp.eachRow(i, func(_ int, v float64) { out.dense[i] += v })
		}
		return out
	}
	for i := 0; i < a.rows; i++ {
		var s float64
		for _, v := range a.dense[i*a.cols : (i+1)*a.cols] {
			s += v
		}
		out.dense[i] = s
	}
	return out
}

// ColSums returns the 1 x cols vector of per-column sums, compacted: a
// row vector of mostly zeros is smaller in CSR, as the estimator costs it.
func ColSums(a *Matrix) *Matrix {
	out := NewDense(1, a.cols)
	if a.sp != nil {
		a.sp.each(func(_, j int, v float64) { out.dense[j] += v })
		return out.Compact()
	}
	for i := 0; i < a.rows; i++ {
		for j, v := range a.dense[i*a.cols : (i+1)*a.cols] {
			out.dense[j] += v
		}
	}
	return out.Compact()
}

// RowMaxs returns the rows x 1 vector of per-row maxima.
func RowMaxs(a *Matrix) *Matrix {
	out := NewDense(a.rows, 1)
	d := a.ToDense()
	for i := 0; i < a.rows; i++ {
		best := math.Inf(-1)
		for _, v := range d.dense[i*a.cols : (i+1)*a.cols] {
			if v > best {
				best = v
			}
		}
		out.dense[i] = best
	}
	return out
}

// SumSq returns sum(a^2), the tertiary-aggregate pattern used by several
// convergence checks.
func SumSq(a *Matrix) float64 {
	var s float64
	if a.sp != nil {
		for _, v := range a.sp.vals {
			s += v * v
		}
		return s
	}
	for _, v := range a.dense {
		s += v * v
	}
	return s
}

// DotProduct returns sum(a * b) for equally-sized matrices, the
// tertiary-aggregate physical operator for patterns like sum(v1*v2).
func DotProduct(a, b *Matrix) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("matrix: dot dimension mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	var s float64
	if a.sp != nil {
		a.sp.each(func(i, j int, v float64) { s += v * b.At(i, j) })
		return s
	}
	if b.sp != nil {
		b.sp.each(func(i, j int, v float64) { s += v * a.dense[i*a.cols+j] })
		return s
	}
	for i, v := range a.dense {
		s += v * b.dense[i]
	}
	return s
}
