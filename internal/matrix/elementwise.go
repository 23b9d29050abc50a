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

// binaryNames holds each binary operation's DML surface name: its infix
// operator, or the builtin (min, max) that applies it elementwise. ppred
// takes the same names as its operator argument.
var binaryNames = newOpNames([]string{
	Add: "+", Sub: "-", MulEW: "*", Div: "/", Pow: "^", Min2: "min", Max2: "max",
	Less: "<", LessEq: "<=", Greater: ">", GreaterEq: ">=", EqualOp: "==", NotEqual: "!=",
	And: "&", Or: "|",
})

func (op BinaryOp) String() string { return binaryNames.name(int(op)) }

// ParseBinary returns the binary operation whose surface name is s.
func ParseBinary(s string) (BinaryOp, bool) {
	i, ok := binaryNames.parse(s)
	return BinaryOp(i), ok
}

// SparseSafe reports whether a zero in either operand yields a zero
// (x op 0 == 0 op x == 0), so the output keeps at most the non-zeros of
// its sparser operand.
func (op BinaryOp) SparseSafe() bool { return op == MulEW || op == And }

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

// unaryNames holds each unary operation's surface name: its builtin, or
// the prefix operator (-, !); sq is produced only by rewrites.
var unaryNames = newOpNames([]string{
	Sqrt: "sqrt", Abs: "abs", Exp: "exp", Log: "log", Round: "round", Floor: "floor",
	Ceil: "ceil", Neg: "-", Not: "!", Sign: "sign", Sq: "sq",
})

func (op UnaryOp) String() string { return unaryNames.name(int(op)) }

// ParseUnary returns the unary operation whose surface name is s.
func ParseUnary(s string) (UnaryOp, bool) {
	i, ok := unaryNames.parse(s)
	return UnaryOp(i), ok
}

// opNames is one operation type's name table, indexed by operation. The
// compiler and the runtime parse an operator for each hop they build or
// evaluate, so parse does not scan the table: it probes one slot of an
// index keyed by a name's first and last byte, which no two names of a
// table share (newOpNames panics if a new name breaks that).
type opNames struct {
	names []string
	slots [128]uint8 // operation + 1, or 0 for an empty slot
}

func newOpNames(names []string) *opNames {
	t := &opNames{names: names}
	for i, n := range names {
		k := nameSlot(n)
		if t.slots[k] != 0 {
			panic(fmt.Sprintf("matrix: operator names %q and %q share an index slot", names[t.slots[k]-1], n))
		}
		t.slots[k] = uint8(i + 1)
	}
	return t
}

func nameSlot(s string) byte { return (2*s[0] + s[len(s)-1]) & 127 }

func (t *opNames) name(i int) string {
	if i < 0 || i >= len(t.names) {
		return "?"
	}
	return t.names[i]
}

func (t *opNames) parse(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	i := int(t.slots[nameSlot(s)]) - 1
	if i < 0 || t.names[i] != s {
		return 0, false
	}
	return i, true
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

// SparseSafe reports whether op(0) == 0, so the output keeps the input's
// zeros: a sparse input stays sparse, and its nnz bounds the output's.
func (op UnaryOp) SparseSafe() bool {
	switch op {
	case Sqrt, Abs, Round, Floor, Ceil, Neg, Sign, Sq:
		return true
	}
	return false
}

// Unary computes the elementwise unary operation.
func Unary(op UnaryOp, a *Matrix) *Matrix {
	if a.sp != nil && op.SparseSafe() {
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
