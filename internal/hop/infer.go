package hop

import (
	"slices"

	"elasticml/internal/conf"
	"elasticml/internal/matrix"
)

// finalize infers output dimensions, worst-case non-zeros, scalar constant
// values, and memory estimates of a freshly constructed hop. It must be
// called bottom-up (inputs first), which the builder guarantees.
func finalize(h *Hop) {
	inferSizes(h)
	inferScalar(h)
	estimateMem(h)
}

func in(h *Hop, i int) *Hop {
	if i < len(h.Inputs) {
		return h.Inputs[i]
	}
	return nil
}

// inferSizes sets Rows/Cols/NNZ from the inputs using worst-case rules.
func inferSizes(h *Hop) {
	if h.DataType != Matrix {
		h.Rows, h.Cols, h.NNZ = 0, 0, 0
		return
	}
	h.Rows, h.Cols, h.NNZ = Unknown, Unknown, Unknown
	switch h.Kind {
	case KindRead, KindTRead:
		// Set by the builder from file/variable metadata.
	case KindDataGen:
		v, r, c := in(h, 0), in(h, 1), in(h, 2)
		if r != nil && r.KnownVal {
			h.Rows = int64(r.Value)
		}
		if c != nil && c.KnownVal {
			h.Cols = int64(c.Value)
		}
		if h.Rows != Unknown && h.Cols != Unknown {
			if v != nil && v.KnownVal && v.Value == 0 {
				h.NNZ = 0
			} else {
				h.NNZ = h.Rows * h.Cols
			}
		}
	case KindSeq:
		from, to, incr := in(h, 0), in(h, 1), in(h, 2)
		if from != nil && to != nil && incr != nil &&
			from.KnownVal && to.KnownVal && incr.KnownVal && incr.Value != 0 {
			n := int64((to.Value-from.Value)/incr.Value) + 1
			if n < 0 {
				n = 0
			}
			h.Rows, h.Cols, h.NNZ = n, 1, n
		} else {
			h.Cols = 1
		}
	case KindUnary:
		x := in(h, 0)
		h.Rows, h.Cols = x.Rows, x.Cols
		// Sparse-safe unaries preserve nnz; others densify worst-case.
		if op, ok := matrix.ParseUnary(h.Op); ok && op.SparseSafe() {
			h.NNZ = x.NNZ
		} else if h.Rows != Unknown && h.Cols != Unknown {
			h.NNZ = h.Rows * h.Cols
		}
	case KindBinary:
		a, b := in(h, 0), in(h, 1)
		switch {
		case a.IsScalar() && b.IsScalar():
			// handled by DataType != Matrix above
		case a.IsScalar():
			h.Rows, h.Cols = b.Rows, b.Cols
		case b.IsScalar():
			h.Rows, h.Cols = a.Rows, a.Cols
		default:
			// Broadcast: output has the max extents.
			h.Rows = maxDim(a.Rows, b.Rows)
			h.Cols = maxDim(a.Cols, b.Cols)
		}
		h.NNZ = binaryNNZ(h, a, b)
	case KindAggUnary:
		x := in(h, 0)
		switch h.Op {
		case "rowSums", "rowMaxs":
			h.Rows, h.Cols = x.Rows, 1
			if h.Rows != Unknown {
				h.NNZ = h.Rows
			}
		case "colSums":
			h.Rows, h.Cols = 1, x.Cols
			if h.Cols != Unknown {
				h.NNZ = h.Cols
			}
		default:
			// full aggregates are scalars; DataType is Scalar then.
		}
	case KindMatMul:
		a, b := in(h, 0), in(h, 1)
		aRows, aCols := a.Rows, a.Cols
		if h.TransA {
			aRows, aCols = aCols, aRows
		}
		h.Rows, h.Cols = aRows, b.Cols
		if h.Rows != Unknown && h.Cols != Unknown && aCols != Unknown {
			// Worst case, like every other rule here: expected output
			// sparsity (matrix.MulSparsity's independence model) is only
			// computed on runtime metadata, never propagated through
			// compile-time estimates — an expected nnz below the actual one
			// would poison the memory bound of every downstream consumer
			// (twrite/write/binary) that sizes its output from this value.
			h.NNZ = matMulWorstNNZ(h, h.Rows*h.Cols)
		}
	case KindReorg:
		x := in(h, 0)
		h.Rows, h.Cols, h.NNZ = x.Cols, x.Rows, x.NNZ
	case KindAppend:
		a, b := in(h, 0), in(h, 1)
		if h.Op == "rbind" {
			h.Cols = a.Cols
			if a.Rows != Unknown && b.Rows != Unknown {
				h.Rows = a.Rows + b.Rows
			}
		} else {
			h.Rows = a.Rows
			if a.Cols != Unknown && b.Cols != Unknown {
				h.Cols = a.Cols + b.Cols
			}
		}
		if a.NNZ != Unknown && b.NNZ != Unknown {
			h.NNZ = a.NNZ + b.NNZ
		}
	case KindIndex:
		x := in(h, 0)
		h.Rows = rangeExtent(in(h, 1), in(h, 2), x.Rows)
		h.Cols = rangeExtent(in(h, 3), in(h, 4), x.Cols)
		if h.Rows != Unknown && h.Cols != Unknown {
			// Worst case: selected region fully dense, bounded by source nnz.
			h.NNZ = h.Rows * h.Cols
			if x.NNZ != Unknown && x.NNZ < h.NNZ {
				h.NNZ = x.NNZ
			}
		}
	case KindLeftIndex:
		x := in(h, 0)
		h.Rows, h.Cols = x.Rows, x.Cols
		if h.Rows != Unknown && h.Cols != Unknown {
			h.NNZ = h.Rows * h.Cols
		}
	case KindTable:
		// Output dims are data dependent: rows bounded by max row-category,
		// columns by max column-category — unknown at compile time. The
		// special pattern table(seq(1,n), y) has known rows n.
		a := in(h, 0)
		if a != nil && a.Kind == KindSeq && a.Rows != Unknown {
			h.Rows = a.Rows
		}
	case KindDiag:
		x := in(h, 0)
		if x.Cols == 1 {
			h.Rows, h.Cols = x.Rows, x.Rows
			h.NNZ = x.NNZ
		} else {
			h.Rows, h.Cols = minDim(x.Rows, x.Cols), 1
			if h.Rows != Unknown {
				h.NNZ = h.Rows
			}
		}
	case KindSolve:
		a, b := in(h, 0), in(h, 1)
		h.Rows, h.Cols = a.Cols, b.Cols
		if h.Rows != Unknown && h.Cols != Unknown {
			h.NNZ = h.Rows * h.Cols
		}
	case KindCast:
		x := in(h, 0)
		h.Rows, h.Cols, h.NNZ = x.Rows, x.Cols, x.NNZ
	case KindTWrite, KindWrite:
		x := in(h, 0)
		if x != nil {
			h.Rows, h.Cols, h.NNZ = x.Rows, x.Cols, x.NNZ
		}
	}
}

func maxDim(a, b int64) int64 {
	if a == Unknown || b == Unknown {
		// Broadcasting: a known extent > 1 forces the result (the unknown
		// side must be 1 or equal); a known extent of 1 leaves the unknown
		// side in charge.
		known := a
		if a == Unknown {
			known = b
		}
		if known > 1 {
			return known
		}
		return Unknown
	}
	return max(a, b)
}

func minDim(a, b int64) int64 {
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return min(a, b)
}

// rangeExtent computes the extent of an index range [lo, hi] (1-based,
// inclusive); nil lo means the full dimension, nil hi means single element.
func rangeExtent(lo, hi *Hop, full int64) int64 {
	if lo == nil {
		return full
	}
	if hi == nil {
		return 1
	}
	if lo.KnownVal && hi.KnownVal {
		return max(int64(hi.Value)-int64(lo.Value)+1, 0)
	}
	return Unknown
}

func binaryNNZ(h *Hop, a, b *Hop) int64 {
	if h.Rows == Unknown || h.Cols == Unknown {
		return Unknown
	}
	cells := h.Rows * h.Cols
	// effNNZ views one operand at the output shape, worst case: scalars act
	// fully dense (the op may map zeros to non-zeros everywhere), and
	// broadcast vectors replicate every stored non-zero across the
	// broadcast dimension. Without the replication term a column vector
	// added to a matrix was estimated at nnz(v)+nnz(M) — unsound as soon as
	// the vector row fans out.
	effNNZ := func(x *Hop) int64 {
		if x.IsScalar() || x.NNZ == Unknown || x.Rows == Unknown || x.Cols == Unknown {
			return cells
		}
		n := x.NNZ
		if x.Rows == 1 && h.Rows > 1 {
			n = satMul(n, h.Rows, cells)
		}
		if x.Cols == 1 && h.Cols > 1 {
			n = satMul(n, h.Cols, cells)
		}
		return min(n, cells)
	}
	op, ok := matrix.ParseBinary(h.Op)
	switch {
	case !ok:
		return cells
	case op.SparseSafe():
		return min(effNNZ(a), effNNZ(b))
	case op == matrix.Add || op == matrix.Sub:
		return min(effNNZ(a)+effNNZ(b), cells) // zero only where both operands are
	default:
		return cells
	}
}

// satMul multiplies n by f, saturating at cap (worst-case nnz arithmetic
// must not wrap on propagated 1e9-scale dimensions).
func satMul(n, f, cap int64) int64 {
	if f > 0 && n > cap/f {
		return cap
	}
	return n * f
}

// inferScalar propagates known scalar constants bottom-up: literals are
// known, arithmetic over known scalars is known, and nrow/ncol of matrices
// with known dimensions are known. This subsumes constant folding and
// enables static branch removal.
func inferScalar(h *Hop) {
	if h.DataType == Matrix {
		return
	}
	switch h.Kind {
	case KindLit:
		h.KnownVal = true
	case KindUnary:
		x := in(h, 0)
		if x != nil && x.KnownVal {
			if op, ok := matrix.ParseUnary(h.Op); ok {
				h.KnownVal, h.Value = true, op.Apply(x.Value)
			}
		}
	case KindBinary:
		a, b := in(h, 0), in(h, 1)
		if a != nil && b != nil && a.KnownVal && b.KnownVal {
			if op, ok := matrix.ParseBinary(h.Op); ok {
				h.KnownVal, h.Value = true, op.Apply(a.Value, b.Value)
			}
		}
	case KindAggUnary:
		// nrow/ncol pseudo-aggregates resolved by the builder directly.
	case KindCast:
		x := in(h, 0)
		if x != nil && x.IsScalar() && x.KnownVal {
			h.KnownVal, h.Value = true, x.Value
		}
	case KindTWrite:
		// A string's value is its StrValue, which metaOf publishes to the
		// blocks that read the variable.
		if x := in(h, 0); x != nil {
			h.StrValue = x.StrValue
			if x.KnownVal {
				h.KnownVal, h.Value = true, x.Value
			}
		}
	}
}

// estimateMem computes the worst-case output and operation memory
// estimates. Unknown dimensions yield "infinite" estimates so that
// operator selection falls back to robust MR plans (SystemML's behaviour).
func estimateMem(h *Hop) {
	if h.DataType != Matrix {
		h.OutMem = 16 // scalar slot
		h.OpMem = 16
		for _, i := range h.Inputs {
			if i != nil && i.DataType == Matrix {
				// Aggregates consume their matrix inputs in memory.
				h.OpMem += i.OutMem
			}
		}
		return
	}
	if !h.DimsKnown() {
		// table(seq(1,n), y) has a data-dependent column count but exactly
		// one non-zero per row: its worst-case footprint is the sparse
		// indicator size, not infinity.
		if h.Kind == KindTable && h.Rows != Unknown {
			h.OutMem = matrix.SparseSize(h.Rows, h.Rows, 1/float64(h.Rows))
			mem := h.OutMem
			for _, i := range h.Inputs {
				if i != nil && i.DataType == Matrix && i.DimsKnown() {
					mem += i.OutMem
				}
			}
			h.OpMem = mem
			return
		}
		h.OutMem = infMem
		h.OpMem = infMem
		return
	}
	h.OutMem = matrix.EstimateSize(h.Rows, h.Cols, h.Sparsity())
	mem := h.OutMem
	for k, i := range h.Inputs {
		if i != nil && i.DataType == Matrix {
			if !i.DimsKnown() {
				h.OpMem = infMem
				return
			}
			if !slices.Contains(h.Inputs[:k], i) {
				mem += i.OutMem
			}
		}
	}
	// Operator-specific intermediates.
	switch h.Kind {
	case KindSolve:
		// LU work copy of A plus RHS copy.
		mem += in(h, 0).OutMem + in(h, 1).OutMem
	case KindTable:
		mem += h.OutMem // hash-side construction buffer
	}
	h.OpMem = mem
}

// matMulWorstNNZ bounds the output nnz of a matrix multiply without the
// no-cancellation independence assumption. Transposed-A inputs need no
// special case: nnz is invariant under transposition.
func matMulWorstNNZ(h *Hop, cells int64) int64 {
	worst := cells
	if a := in(h, 0); a != nil && a.NNZ != Unknown {
		if w := satMul(a.NNZ, h.Cols, cells); w < worst {
			worst = w
		}
	}
	if b := in(h, 1); b != nil && b.NNZ != Unknown {
		if w := satMul(b.NNZ, h.Rows, cells); w < worst {
			worst = w
		}
	}
	return worst
}

// UpdateFromRuntime overwrites a hop's dimensions with sizes observed at
// execution time (e.g. the data-dependent output of table()) and refreshes
// its memory estimates. The runtime uses this to charge simulated time from
// actual sizes rather than worst-case unknowns.
func UpdateFromRuntime(h *Hop, rows, cols, nnz int64) {
	if h.DataType != Matrix {
		return
	}
	h.Rows, h.Cols, h.NNZ = rows, cols, nnz
	estimateMem(h)
}

// infMem is the "does not fit anywhere" estimate for unknown sizes.
const infMem conf.Bytes = 1 << 60

// InfiniteMem reports whether a memory estimate represents an unknown
// (worst-case infinite) requirement.
func InfiniteMem(b conf.Bytes) bool { return b >= infMem }
