package rt

import (
	"fmt"
	"slices"

	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/matrix"
	"elasticml/internal/perf"
)

// env evaluates one linearized DAG with memoization — a generic block's
// Order or a control block's Header — in the order its consumers ask for
// values (reads draw from the fault injector and prints stream to Out, so
// the order is part of the result). Hops memoize by Pos in vals, and the
// scalars and descriptors they produce live in slab, each in the slot of
// the hop that built it. args stacks the operands of the hops being
// evaluated (see evalInputs). An interpreter owns one env and newEnv
// resets it for each evaluation, so a value in slab is valid until the
// next evaluation starts: a transient write binds a copy of it, and
// evalPredicate returns one.
type env struct {
	ip   *Interp
	vals []*Value
	slab []Value
	args []*Value
}

// newEnv returns ip's env, reset for one evaluation of the DAG linearized
// as order. Its arrays grow to the largest DAG the interpreter evaluates;
// vals and the args stack share one allocation, the stack starting with
// room for one operand per hop and growing if a DAG needs more.
func newEnv(ip *Interp, order []*hop.Hop) *env {
	e, n := &ip.ev, len(order)
	if ip.fresh {
		e = &env{}
	}
	if cap(e.vals) < n {
		ptrs := make([]*Value, 2*n)
		e.vals, e.args, e.slab = ptrs[:n:n], ptrs[n:n], make([]Value, n)
	}
	e.ip, e.vals, e.slab, e.args = ip, e.vals[:n], e.slab[:n], e.args[:0]
	clear(e.vals)
	clear(e.slab)
	return e
}

// scalar, unknown and desc build h's result in h's slab slot: a known
// scalar, a sim-mode scalar of unknown magnitude, and a matrix descriptor.
func (e *env) scalar(h *hop.Hop, x float64) *Value {
	v := &e.slab[h.Pos]
	v.Scalar, v.Known = x, true
	return v
}

func (e *env) unknown(h *hop.Hop) *Value { return &e.slab[h.Pos] }

func (e *env) desc(h *hop.Hop, rows, cols, nnz int64) *Value {
	v := &e.slab[h.Pos]
	v.Matrix, v.Rows, v.Cols, v.NNZ = true, rows, cols, nnz
	return v
}

func (e *env) eval(h *hop.Hop) (v *Value, err error) {
	if h == nil {
		return nil, nil
	}
	if cached := e.vals[h.Pos]; cached != nil {
		return cached, nil
	}
	// Matrix kernels panic on operand mismatches (bad plans whose
	// compile-time dimensions diverged from runtime values); recover them
	// into typed runtime errors so execution fails cleanly.
	defer func() {
		if r := recover(); r != nil {
			v = nil
			err = &KernelError{Op: fmt.Sprintf("%v", h.Kind), Detail: fmt.Sprint(r)}
		}
	}()
	v, err = e.compute(h)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", h.Kind, err)
	}
	if e.ip.Mode == ModeValue && v != nil && v.Matrix && v.Mat != nil && compactAfter(h.Kind) {
		// Convert the result to its preferred representation (SystemML's
		// examSparsity): kernels that always emit dense buffers would
		// otherwise pin a dense copy where the memory estimator (and the
		// buffer pool) costs the compact form.
		if c := v.Mat.Compact(); c != v.Mat {
			v = MatValue(c)
		}
	}
	e.vals[h.Pos] = v
	if e.ip.MemHook != nil && e.ip.Mode == ModeValue {
		e.observeMem(h, v)
	}
	return v, nil
}

// compactAfter lists the hop kinds whose value-mode kernels may return a
// non-preferred representation (dense buffers for sparse results). All
// other kernels compact internally or cannot shrink (vectors, scalars).
func compactAfter(k hop.Kind) bool {
	switch k {
	case hop.KindMatMul, hop.KindDataGen, hop.KindLeftIndex, hop.KindDiag:
		return true
	}
	return false
}

// observeMem reports the hop's actual operand footprint to the MemHook:
// the produced matrix plus each distinct materialized matrix input (the
// same de-duplication rule the estimator applies to OpMem).
func (e *env) observeMem(h *hop.Hop, v *Value) {
	var out *matrix.Matrix
	if v != nil && v.Matrix {
		out = v.Mat
	}
	var ins []*matrix.Matrix
	for i, in := range h.Inputs {
		if in == nil || in.DataType != hop.Matrix || slices.Contains(h.Inputs[:i], in) {
			continue
		}
		if iv := e.vals[in.Pos]; iv != nil && iv.Matrix && iv.Mat != nil {
			ins = append(ins, iv.Mat)
		}
	}
	e.ip.MemHook(h, ins, out)
}

// evalInputs evaluates h's inputs in order. The values are a window of
// the env's args stack, valid until the caller evaluates another hop: every
// caller computes its result from them without evaluating further.
func (e *env) evalInputs(h *hop.Hop) ([]*Value, error) {
	base := len(e.args)
	for _, in := range h.Inputs {
		v, err := e.eval(in)
		if err != nil {
			e.args = e.args[:base]
			return nil, err
		}
		e.args = append(e.args, v)
	}
	vals := e.args[base:]
	e.args = e.args[:base]
	return vals, nil
}

func (e *env) compute(h *hop.Hop) (*Value, error) {
	ip := e.ip
	switch h.Kind {
	case hop.KindLit:
		if h.DataType == hop.String {
			return StrValue(h.StrValue), nil
		}
		return e.scalar(h, h.Value), nil

	case hop.KindTRead:
		v, ok := ip.Vars[h.Name]
		if !ok {
			return nil, fmt.Errorf("undefined variable %q", h.Name)
		}
		return v, nil

	case hop.KindRead:
		f, retries, err := ip.FS.ReadWithRetry(h.Name, ip.readAttempts())
		if err != nil {
			return nil, err
		}
		if retries > 0 {
			// Each transient failure re-reads one DFS block from another
			// replica; charge the re-read into the recovery budget.
			ip.Stats.HDFSRetries += retries
			penalty := perf.ReadTime(ip.CC.HDFSBlockSize, 1) * float64(retries)
			ip.SimTime += penalty
			ip.Stats.RecoverySeconds += penalty
		}
		if ip.Mode == ModeValue {
			if f.Data == nil {
				return nil, fmt.Errorf("value mode requires real payload for %q", h.Name)
			}
			return MatValue(f.Data), nil
		}
		return e.desc(h, f.Rows, f.Cols, f.NNZ), nil

	case hop.KindTWrite:
		in := h.Inputs[0]
		v, err := e.eval(in)
		if err != nil {
			return nil, err
		}
		if v == &e.slab[in.Pos] {
			// The variable outlives the slab.
			c := *v
			v = &c
		}
		ip.Vars[h.Name] = v
		return v, nil

	case hop.KindWrite:
		v, err := e.eval(h.Inputs[0])
		if err != nil {
			return nil, err
		}
		if v.Matrix {
			if ip.Mode == ModeValue {
				ip.FS.PutMatrix(h.Name, v.Mat)
			} else {
				ip.FS.PutDescriptor(h.Name, v.Rows, v.Cols, v.NNZ, hdfs.BinaryBlock)
			}
		}
		return v, nil

	case hop.KindPrint:
		v, err := e.eval(h.Inputs[0])
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(ip.Out, v.Format())
		return v, nil

	case hop.KindStop:
		v, err := e.eval(h.Inputs[0])
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stop: %s", v.Format())

	case hop.KindDataGen:
		return e.dataGen(h)
	case hop.KindSeq:
		return e.seq(h)
	case hop.KindUnary:
		return e.unary(h)
	case hop.KindBinary:
		return e.binary(h)
	case hop.KindAggUnary:
		return e.agg(h)
	case hop.KindMatMul:
		return e.matmul(h)
	case hop.KindReorg:
		return e.reorg(h)
	case hop.KindAppend:
		return e.appendOp(h)
	case hop.KindIndex:
		return e.index(h)
	case hop.KindLeftIndex:
		return e.leftIndex(h)
	case hop.KindTable:
		return e.table(h)
	case hop.KindDiag:
		return e.diag(h)
	case hop.KindSolve:
		return e.solve(h)
	case hop.KindTernaryAgg:
		return e.ternaryAgg(h)
	case hop.KindCast:
		return e.cast(h)
	}
	return nil, fmt.Errorf("unsupported hop kind %v", h.Kind)
}

func (e *env) dataGen(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	v, r, c := vals[0], vals[1], vals[2]
	if !r.Known || !c.Known {
		return nil, fmt.Errorf("matrix() dimensions unknown at runtime")
	}
	rows, cols := int64(r.Scalar), int64(c.Scalar)
	if e.ip.Mode == ModeSim {
		nnz := rows * cols
		if v.Known && v.Scalar == 0 {
			nnz = 0
		}
		return e.desc(h, rows, cols, nnz), nil
	}
	return MatValue(matrix.Filled(int(rows), int(cols), v.Scalar)), nil
}

func (e *env) seq(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	from, to, incr := vals[0], vals[1], vals[2]
	if !from.Known || !to.Known || !incr.Known {
		return nil, fmt.Errorf("seq bounds unknown at runtime")
	}
	if e.ip.Mode == ModeSim {
		n := int64((to.Scalar-from.Scalar)/incr.Scalar) + 1
		if n < 0 {
			n = 0
		}
		return e.desc(h, n, 1, n), nil
	}
	return MatValue(matrix.Seq(from.Scalar, to.Scalar, incr.Scalar)), nil
}

func (e *env) unary(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	x := vals[0]
	switch {
	case !x.Matrix && !x.Known:
		return e.unknown(h), nil
	case x.Matrix && (e.ip.Mode == ModeSim || x.Mat == nil):
		return e.metaFromHop(h, x), nil
	}
	op, ok := matrix.ParseUnary(h.Op)
	if !ok {
		return nil, fmt.Errorf("unknown unary %q", h.Op)
	}
	if !x.Matrix {
		return e.scalar(h, op.Apply(x.Scalar)), nil
	}
	return MatValue(matrix.Unary(op, x.Mat)), nil
}

func (e *env) binary(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	a, b := vals[0], vals[1]
	// String concatenation.
	if a.IsStr || b.IsStr {
		if h.Op != "+" {
			return nil, fmt.Errorf("strings support only concatenation")
		}
		return StrValue(a.Format() + b.Format()), nil
	}
	switch {
	case !a.Matrix && !b.Matrix && (!a.Known || !b.Known):
		return e.unknown(h), nil
	case (a.Matrix || b.Matrix) && (e.ip.Mode == ModeSim || (a.Matrix && a.Mat == nil) || (b.Matrix && b.Mat == nil)):
		ref := a
		if !ref.Matrix {
			ref = b
		}
		return e.metaFromHop(h, ref), nil
	}
	op, ok := matrix.ParseBinary(h.Op)
	if !ok {
		return nil, fmt.Errorf("unknown binary %q", h.Op)
	}
	switch {
	case !a.Matrix && !b.Matrix:
		return e.scalar(h, op.Apply(a.Scalar, b.Scalar)), nil
	case a.Matrix && b.Matrix:
		return MatValue(matrix.EW(op, a.Mat, b.Mat)), nil
	case a.Matrix:
		return MatValue(matrix.EWScalarRight(op, a.Mat, b.Scalar)), nil
	default:
		return MatValue(matrix.EWScalarLeft(op, a.Scalar, b.Mat)), nil
	}
}

func (e *env) agg(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	x := vals[0]
	switch h.Op {
	case "nrow":
		return e.scalar(h, float64(x.Rows)), nil
	case "ncol":
		return e.scalar(h, float64(x.Cols)), nil
	}
	if e.ip.Mode == ModeSim || x.Mat == nil {
		if h.IsScalar() {
			return e.unknown(h), nil
		}
		return e.metaFromHop(h, x), nil
	}
	m := x.Mat
	switch h.Op {
	case "sum":
		return e.scalar(h, matrix.Sum(m)), nil
	case "mean":
		return e.scalar(h, matrix.Agg(matrix.MeanAgg, m)), nil
	case "min":
		return e.scalar(h, matrix.Agg(matrix.MinAgg, m)), nil
	case "max":
		return e.scalar(h, matrix.Agg(matrix.MaxAgg, m)), nil
	case "trace":
		return e.scalar(h, matrix.Agg(matrix.Trace, m)), nil
	case "sumsq":
		return e.scalar(h, matrix.SumSq(m)), nil
	case "rowSums":
		return MatValue(matrix.RowSums(m)), nil
	case "colSums":
		return MatValue(matrix.ColSums(m)), nil
	case "rowMaxs":
		return MatValue(matrix.RowMaxs(m)), nil
	}
	return nil, fmt.Errorf("unknown aggregate %q", h.Op)
}

func (e *env) matmul(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	a, b := vals[0], vals[1]
	if e.ip.Mode == ModeSim || a.Mat == nil || b.Mat == nil {
		rows := a.Rows
		k := a.Cols
		if h.TransA {
			rows, k = a.Cols, a.Rows
		}
		sp := matrix.MulSparsity(a.Sparsity(), b.Sparsity(), k)
		nnz := int64(sp * float64(rows) * float64(b.Cols))
		return e.desc(h, rows, b.Cols, nnz), nil
	}
	if h.TransA {
		if h.Inputs[0] == h.Inputs[1] {
			return MatValue(matrix.TSMM(a.Mat)), nil
		}
		return MatValue(matrix.Mul(matrix.Transpose(a.Mat), b.Mat)), nil
	}
	return MatValue(matrix.Mul(a.Mat, b.Mat)), nil
}

func (e *env) reorg(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	x := vals[0]
	if e.ip.Mode == ModeSim || x.Mat == nil {
		return e.desc(h, x.Cols, x.Rows, x.NNZ), nil
	}
	return MatValue(matrix.Transpose(x.Mat)), nil
}

func (e *env) appendOp(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	a, b := vals[0], vals[1]
	if e.ip.Mode == ModeSim || a.Mat == nil || b.Mat == nil {
		if h.Op == "rbind" {
			return e.desc(h, a.Rows+b.Rows, a.Cols, a.NNZ+b.NNZ), nil
		}
		return e.desc(h, a.Rows, a.Cols+b.Cols, a.NNZ+b.NNZ), nil
	}
	if h.Op == "rbind" {
		return MatValue(matrix.RBind(a.Mat, b.Mat)), nil
	}
	return MatValue(matrix.CBind(a.Mat, b.Mat)), nil
}

// bounds resolves the four index-bound hops into 0-based half-open ranges.
func (e *env) bounds(h *hop.Hop, off int, rows, cols int64) (r0, r1, c0, c1 int64, err error) {
	get := func(i int, def int64) (int64, error) {
		if i >= len(h.Inputs) || h.Inputs[i] == nil {
			return def, nil
		}
		v, err := e.eval(h.Inputs[i])
		if err != nil {
			return 0, err
		}
		if !v.Known {
			return 0, fmt.Errorf("index bound unknown at runtime")
		}
		return int64(v.Scalar), nil
	}
	rl, err := get(off, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if h.Inputs[off] == nil {
		r0, r1 = 0, rows
	} else {
		ru, err := get(off+1, rl)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		r0, r1 = rl-1, ru
	}
	cl, err := get(off+2, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if off+2 >= len(h.Inputs) || h.Inputs[off+2] == nil {
		c0, c1 = 0, cols
	} else {
		cu, err := get(off+3, cl)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		c0, c1 = cl-1, cu
	}
	return r0, r1, c0, c1, nil
}

func (e *env) index(h *hop.Hop) (*Value, error) {
	x, err := e.eval(h.Inputs[0])
	if err != nil {
		return nil, err
	}
	r0, r1, c0, c1, err := e.bounds(h, 1, x.Rows, x.Cols)
	if err != nil {
		return nil, err
	}
	if e.ip.Mode == ModeSim || x.Mat == nil {
		rows, cols := r1-r0, c1-c0
		nnz := int64(float64(rows*cols) * x.Sparsity())
		return e.desc(h, rows, cols, nnz), nil
	}
	return MatValue(matrix.Slice(x.Mat, int(r0), int(r1), int(c0), int(c1))), nil
}

func (e *env) leftIndex(h *hop.Hop) (*Value, error) {
	x, err := e.eval(h.Inputs[0])
	if err != nil {
		return nil, err
	}
	v, err := e.eval(h.Inputs[1])
	if err != nil {
		return nil, err
	}
	r0, r1, c0, c1, err := e.bounds(h, 2, x.Rows, x.Cols)
	if err != nil {
		return nil, err
	}
	if e.ip.Mode == ModeSim || x.Mat == nil {
		return e.desc(h, x.Rows, x.Cols, x.Rows*x.Cols), nil
	}
	// ToDense already returns a fresh buffer for sparse sources; clone only
	// when it aliases the (dense) source, so the update never mutates the
	// bound variable and never allocates a redundant second copy.
	out := x.Mat.ToDense()
	if out == x.Mat {
		out = out.Clone()
	}
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			var val float64
			if v.Matrix {
				val = v.Mat.At(int(i-r0), int(j-c0))
			} else {
				val = v.Scalar
			}
			out.Set(int(i), int(j), val)
		}
	}
	return MatValue(out), nil
}

func (e *env) table(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	a, b := vals[0], vals[1]
	if e.ip.Mode == ModeSim || a.Mat == nil || b.Mat == nil {
		// Data-dependent output size: in sim mode the class count comes
		// from the workload specification.
		return e.desc(h, a.Rows, e.ip.SimTableCols, a.Rows), nil
	}
	return MatValue(matrix.Table(a.Mat, b.Mat)), nil
}

func (e *env) diag(h *hop.Hop) (*Value, error) {
	x, err := e.eval(h.Inputs[0])
	if err != nil {
		return nil, err
	}
	if e.ip.Mode == ModeSim || x.Mat == nil {
		if x.Cols == 1 {
			return e.desc(h, x.Rows, x.Rows, x.NNZ), nil
		}
		n := x.Rows
		if x.Cols < n {
			n = x.Cols
		}
		return e.desc(h, n, 1, n), nil
	}
	return MatValue(matrix.Diag(x.Mat)), nil
}

func (e *env) solve(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	a, b := vals[0], vals[1]
	if e.ip.Mode == ModeSim || a.Mat == nil || b.Mat == nil {
		return e.desc(h, a.Cols, b.Cols, a.Cols*b.Cols), nil
	}
	x, err := matrix.Solve(a.Mat, b.Mat)
	if err != nil {
		return nil, err
	}
	return MatValue(x), nil
}

func (e *env) ternaryAgg(h *hop.Hop) (*Value, error) {
	vals, err := e.evalInputs(h)
	if err != nil {
		return nil, err
	}
	if e.ip.Mode == ModeSim {
		return e.unknown(h), nil
	}
	for _, v := range vals {
		if v.Mat == nil {
			return e.unknown(h), nil
		}
	}
	prod := vals[0].Mat
	for _, v := range vals[1 : len(vals)-1] {
		prod = matrix.EW(matrix.MulEW, prod, v.Mat)
	}
	return e.scalar(h, matrix.DotProduct(prod, vals[len(vals)-1].Mat)), nil
}

func (e *env) cast(h *hop.Hop) (*Value, error) {
	x, err := e.eval(h.Inputs[0])
	if err != nil {
		return nil, err
	}
	if !x.Matrix {
		// Into h's own slot, so that a transient write of the cast knows
		// the value lives in the slab.
		v := &e.slab[h.Pos]
		*v = *x
		return v, nil
	}
	if x.Mat == nil {
		return e.unknown(h), nil
	}
	if x.Rows != 1 || x.Cols != 1 {
		return nil, fmt.Errorf("as.scalar requires 1x1 matrix, got %dx%d", x.Rows, x.Cols)
	}
	return e.scalar(h, x.Mat.At(0, 0)), nil
}

// metaFromHop builds a descriptor from the hop's inferred sizes, falling
// back to the reference value's dimensions when the hop is unknown.
func (e *env) metaFromHop(h *hop.Hop, ref *Value) *Value {
	rows, cols, nnz := h.Rows, h.Cols, h.NNZ
	if rows == hop.Unknown {
		rows = ref.Rows
	}
	if cols == hop.Unknown {
		cols = ref.Cols
	}
	if nnz == hop.Unknown || nnz < 0 {
		nnz = rows * cols
	}
	return e.desc(h, rows, cols, nnz)
}
