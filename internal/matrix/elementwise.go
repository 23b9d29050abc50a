package matrix

import (
	"fmt"
	"math"
)

// BinaryOp identifies an elementwise binary operation.
type BinaryOp int

// Elementwise binary operations.
const (
	Add BinaryOp = iota
	Sub
	MulEW
	Div
	Pow
	Min2
	Max2
	Less
	LessEq
	Greater
	GreaterEq
	EqualOp
	NotEqual
	And
	Or
)

func (op BinaryOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case MulEW:
		return "*"
	case Div:
		return "/"
	case Pow:
		return "^"
	case Min2:
		return "min"
	case Max2:
		return "max"
	case Less:
		return "<"
	case LessEq:
		return "<="
	case Greater:
		return ">"
	case GreaterEq:
		return ">="
	case EqualOp:
		return "=="
	case NotEqual:
		return "!="
	case And:
		return "&"
	case Or:
		return "|"
	}
	return "?"
}

// Apply evaluates the operation on a pair of scalars.
func (op BinaryOp) Apply(a, b float64) float64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case MulEW:
		return a * b
	case Div:
		return a / b
	case Pow:
		return math.Pow(a, b)
	case Min2:
		return math.Min(a, b)
	case Max2:
		return math.Max(a, b)
	case Less:
		return b2f(a < b)
	case LessEq:
		return b2f(a <= b)
	case Greater:
		return b2f(a > b)
	case GreaterEq:
		return b2f(a >= b)
	case EqualOp:
		return b2f(a == b)
	case NotEqual:
		return b2f(a != b)
	case And:
		return b2f(a != 0 && b != 0)
	case Or:
		return b2f(a != 0 || b != 0)
	}
	panic(fmt.Sprintf("matrix: unknown binary op %d", op))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// EW computes the elementwise operation c = a op b with R-style broadcast:
// operands must have equal dimensions, or one may be a column vector
// matching the other's rows, or a row vector matching its columns, or 1x1.
func EW(op BinaryOp, a, b *Matrix) *Matrix {
	rows, cols := broadcastDims(a, b)
	out := NewDense(rows, cols)
	// Fast path: equal-dim dense-dense.
	if a.sp == nil && b.sp == nil && a.rows == b.rows && a.cols == b.cols && a.rows == rows {
		for i, av := range a.dense {
			out.dense[i] = op.Apply(av, b.dense[i])
		}
		return out.Compact()
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.dense[i*cols+j] = op.Apply(bcAt(a, i, j), bcAt(b, i, j))
		}
	}
	return out.Compact()
}

// EWScalarRight computes a op s for scalar s.
func EWScalarRight(op BinaryOp, a *Matrix, s float64) *Matrix {
	// Sparse-safe ops preserve zeros (0 op s == 0): multiplication always,
	// and others only when the identity holds for this s.
	if a.sp != nil && op == MulEW {
		out := &Matrix{rows: a.rows, cols: a.cols, sp: a.sp.clone()}
		for i := range out.sp.vals {
			out.sp.vals[i] *= s
		}
		return out
	}
	return ewScalar(a, func(v float64) float64 { return op.Apply(v, s) })
}

// EWScalarLeft computes s op a for scalar s.
func EWScalarLeft(op BinaryOp, s float64, a *Matrix) *Matrix {
	return ewScalar(a, func(v float64) float64 { return op.Apply(s, v) })
}

// ewScalar maps f over every cell of a into a dense result; a sparse
// operand's implicit zeros all take f(0).
func ewScalar(a *Matrix, f func(float64) float64) *Matrix {
	out := NewDense(a.rows, a.cols)
	if a.sp != nil {
		z := f(0)
		for i := range out.dense {
			out.dense[i] = z
		}
		a.sp.each(func(i, j int, v float64) { out.dense[i*a.cols+j] = f(v) })
		return out.Compact()
	}
	for i, v := range a.dense {
		out.dense[i] = f(v)
	}
	return out.Compact()
}

func broadcastDims(a, b *Matrix) (int, int) {
	rows, cols := a.rows, a.cols
	if b.rows > rows {
		rows = b.rows
	}
	if b.cols > cols {
		cols = b.cols
	}
	check := func(m *Matrix) {
		rOK := m.rows == rows || m.rows == 1
		cOK := m.cols == cols || m.cols == 1
		if !rOK || !cOK {
			panic(fmt.Sprintf("matrix: broadcast mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
		}
	}
	check(a)
	check(b)
	return rows, cols
}

func bcAt(m *Matrix, i, j int) float64 {
	if m.rows == 1 {
		i = 0
	}
	if m.cols == 1 {
		j = 0
	}
	return m.At(i, j)
}

// UnaryOp identifies an elementwise unary operation.
type UnaryOp int

// Elementwise unary operations.
const (
	Sqrt UnaryOp = iota
	Abs
	Exp
	Log
	Round
	Floor
	Ceil
	Neg
	Not
	Sign
	Sq // x^2, produced by the sum(x^2) rewrite
)

func (op UnaryOp) String() string {
	switch op {
	case Sqrt:
		return "sqrt"
	case Abs:
		return "abs"
	case Exp:
		return "exp"
	case Log:
		return "log"
	case Round:
		return "round"
	case Floor:
		return "floor"
	case Ceil:
		return "ceil"
	case Neg:
		return "-"
	case Not:
		return "!"
	case Sign:
		return "sign"
	case Sq:
		return "sq"
	}
	return "?"
}

// Apply evaluates the unary operation on a scalar.
func (op UnaryOp) Apply(v float64) float64 {
	switch op {
	case Sqrt:
		return math.Sqrt(v)
	case Abs:
		return math.Abs(v)
	case Exp:
		return math.Exp(v)
	case Log:
		return math.Log(v)
	case Round:
		return math.Round(v)
	case Floor:
		return math.Floor(v)
	case Ceil:
		return math.Ceil(v)
	case Neg:
		return -v
	case Not:
		return b2f(v == 0)
	case Sign:
		if v > 0 {
			return 1
		} else if v < 0 {
			return -1
		}
		return 0
	case Sq:
		return v * v
	}
	panic(fmt.Sprintf("matrix: unknown unary op %d", op))
}

// sparseSafe reports whether op(0) == 0, allowing sparse outputs to skip
// stored zeros.
func (op UnaryOp) sparseSafe() bool {
	switch op {
	case Sqrt, Abs, Round, Floor, Ceil, Neg, Sign, Sq:
		return true
	}
	return false
}

// Unary computes the elementwise unary operation.
func Unary(op UnaryOp, a *Matrix) *Matrix {
	if a.sp != nil && op.sparseSafe() {
		out := &Matrix{rows: a.rows, cols: a.cols, sp: a.sp.clone()}
		for i, v := range out.sp.vals {
			out.sp.vals[i] = op.Apply(v)
		}
		return out
	}
	d := a.ToDense()
	out := NewDense(a.rows, a.cols)
	for i, v := range d.dense {
		out.dense[i] = op.Apply(v)
	}
	return out.Compact()
}
