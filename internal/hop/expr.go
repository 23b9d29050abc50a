package hop

import (
	"fmt"
	"strconv"

	"elasticml/internal/dml"
	"elasticml/internal/matrix"
)

// dagCtx is the per-DAG build context: the symbol table, variables assigned
// so far in this block, transient-read and CSE caches.
type dagCtx struct {
	meta   SymTab
	locals map[string]*Hop
	order  []string
	treads map[string]*Hop
	cse    map[string]*Hop
	// key is the scratch buffer dedup builds CSE keys in; keyBuf backs it
	// until a key outgrows it.
	key    []byte
	keyBuf [64]byte
}

func (c *Compiler) newCtx(meta SymTab) *dagCtx {
	ctx := &dagCtx{
		meta:   meta,
		locals: make(map[string]*Hop),
		treads: make(map[string]*Hop),
		cse:    make(map[string]*Hop),
	}
	ctx.key = ctx.keyBuf[:0]
	return ctx
}

// buildGeneric compiles a run of straight-line statements into one generic
// block with a single DAG.
func (c *Compiler) buildGeneric(stmts []dml.Stmt, meta SymTab, first, last int) (*Block, error) {
	ctx := c.newCtx(meta)
	var roots []*Hop
	for _, st := range stmts {
		switch st := st.(type) {
		case *dml.Assign:
			h, err := c.expr(st.Expr, ctx)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", st.SrcLine, err)
			}
			if st.LIndex != nil {
				h, err = c.leftIndex(st, h, ctx)
				if err != nil {
					return nil, fmt.Errorf("line %d: %w", st.SrcLine, err)
				}
			}
			if _, seen := ctx.locals[st.Target]; !seen {
				ctx.order = append(ctx.order, st.Target)
			}
			ctx.locals[st.Target] = h
		case *dml.ExprStmt:
			root, err := c.callStmt(st.Call, ctx)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", st.SrcLine, err)
			}
			if root != nil {
				roots = append(roots, root)
			}
		default:
			return nil, fmt.Errorf("line %d: control statement inside generic block", st.Line())
		}
	}
	// Emit transient writes in assignment order and publish metadata.
	for _, name := range ctx.order {
		v := ctx.locals[name]
		tw := c.newHop(ctx, KindTWrite, "", v)
		tw.Name = name
		tw.DataType = v.DataType
		finalize(tw)
		roots = append(roots, tw)
		meta[name] = metaOf(tw)
	}
	b := &Block{Kind: dml.GenericBlock, Stmts: stmts, Roots: roots,
		FirstLine: first, LastLine: last}
	b.Recompile = HasUnknownDims(roots)
	return b, nil
}

// metaOf extracts variable metadata from a hop.
func metaOf(h *Hop) VarMeta {
	if h.DataType == Matrix {
		return VarMeta{IsMatrix: true, Rows: h.Rows, Cols: h.Cols, NNZ: h.NNZ}
	}
	m := VarMeta{}
	if h.KnownVal {
		m.Known, m.Val = true, h.Value
	}
	if h.DataType == String {
		m.IsStr, m.Str = true, h.StrValue
	}
	return m
}

// newHop allocates a hop, runs inference, folds known scalars to literals,
// and deduplicates via CSE. Root kinds (twrite/write/print/stop) bypass
// CSE and folding.
func (c *Compiler) newHop(ctx *dagCtx, kind Kind, op string, inputs ...*Hop) *Hop {
	h := &Hop{ID: c.id(), Kind: kind, Op: op, Inputs: inputs}
	return h
}

// seal finalizes inference and applies folding + CSE. All non-root
// constructors funnel through here.
func (c *Compiler) seal(ctx *dagCtx, h *Hop) *Hop {
	finalize(h)
	// Constant folding: replace known scalar computations with literals.
	if h.DataType == Scalar && h.KnownVal && h.Kind != KindLit {
		return c.lit(ctx, h.Value)
	}
	return ctx.dedup(h)
}

// dedup returns the hop this DAG already built with h's CSE key, or
// records h under it.
func (ctx *dagCtx) dedup(h *Hop) *Hop {
	if prev, ok := ctx.lookup(h); ok {
		return prev
	}
	ctx.insert(h)
	return h
}

// lookup returns the hop this DAG already built with h's CSE key, and
// leaves the key in ctx.key for insert. The key is kind, operator, name, a
// literal's value, and the inputs' IDs; looking it up allocates nothing.
func (ctx *dagCtx) lookup(h *Hop) (*Hop, bool) {
	ctx.key = appendCSEKey(ctx.key[:0], h)
	prev, ok := ctx.cse[string(ctx.key)]
	return prev, ok
}

// insert records h under the key the last lookup built, one string.
func (ctx *dagCtx) insert(h *Hop) { ctx.cse[string(ctx.key)] = h }

// appendCSEKey appends h's CSE key to dst: "kind|op|name", then
// "|value|quoted string" for a literal, then "|inputID" or "|_" per input.
func appendCSEKey(dst []byte, h *Hop) []byte {
	dst = strconv.AppendInt(dst, int64(h.Kind), 10)
	dst = append(dst, '|')
	dst = append(dst, h.Op...)
	dst = append(dst, '|')
	dst = append(dst, h.Name...)
	if h.Kind == KindLit {
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, h.Value, 'g', -1, 64)
		dst = append(dst, '|')
		dst = strconv.AppendQuote(dst, h.StrValue)
	}
	for _, in := range h.Inputs {
		if in == nil {
			dst = append(dst, "|_"...)
		} else {
			dst = append(dst, '|')
			dst = strconv.AppendInt(dst, in.ID, 10)
		}
	}
	return dst
}

func (c *Compiler) lit(ctx *dagCtx, v float64) *Hop {
	return ctx.literal(Hop{ID: c.id(), Kind: KindLit, DataType: Scalar, Value: v})
}

func (c *Compiler) strLit(ctx *dagCtx, s string) *Hop {
	return ctx.literal(Hop{ID: c.id(), Kind: KindLit, DataType: String, StrValue: s})
}

// literal returns the literal this DAG already built with lit's CSE key,
// or allocates, finalizes and records lit. Finalizing a literal changes no
// key field, so the lookup needs no hop of its own; lit's ID is drawn
// either way, which keeps the ID sequence that of building every literal.
func (ctx *dagCtx) literal(lit Hop) *Hop {
	if prev, ok := ctx.lookup(&lit); ok {
		return prev
	}
	h := new(Hop)
	*h = lit
	finalize(h)
	ctx.insert(h)
	return h
}

// expr compiles an expression to a hop.
func (c *Compiler) expr(e dml.Expr, ctx *dagCtx) (*Hop, error) {
	switch e := e.(type) {
	case *dml.Num:
		return c.lit(ctx, e.Value), nil
	case *dml.Str:
		return c.strLit(ctx, e.Value), nil
	case *dml.Bool:
		if e.Value {
			return c.lit(ctx, 1), nil
		}
		return c.lit(ctx, 0), nil
	case *dml.Param:
		v, ok := c.Params[e.Name]
		if !ok {
			return nil, fmt.Errorf("undefined parameter $%s", e.Name)
		}
		switch v := v.(type) {
		case float64:
			return c.lit(ctx, v), nil
		case int:
			return c.lit(ctx, float64(v)), nil
		case string:
			return c.strLit(ctx, v), nil
		case bool:
			if v {
				return c.lit(ctx, 1), nil
			}
			return c.lit(ctx, 0), nil
		default:
			return nil, fmt.Errorf("parameter $%s has unsupported type %T", e.Name, v)
		}
	case *dml.Ident:
		return c.variable(e.Name, ctx)
	case *dml.UnOp:
		x, err := c.expr(e.X, ctx)
		if err != nil {
			return nil, err
		}
		return c.unary(ctx, e.Op, x), nil
	case *dml.BinOp:
		return c.binOp(e, ctx)
	case *dml.Call:
		return c.call(e, ctx)
	case *dml.Index:
		return c.rightIndex(e, ctx)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// variable resolves an identifier to the local assignment or a transient
// read carrying the variable's compile-time metadata.
func (c *Compiler) variable(name string, ctx *dagCtx) (*Hop, error) {
	if h, ok := ctx.locals[name]; ok {
		return h, nil
	}
	if h, ok := ctx.treads[name]; ok {
		return h, nil
	}
	m, ok := ctx.meta[name]
	if !ok {
		return nil, fmt.Errorf("undefined variable %q", name)
	}
	id := c.id()
	// Fold known scalar variables into literals so predicates and sizes
	// derived from them resolve statically. The transient read the literal
	// replaces is never built, but its ID is drawn all the same.
	if !m.IsMatrix && !m.IsStr && m.Known {
		return c.lit(ctx, m.Val), nil
	}
	h := &Hop{ID: id, Kind: KindTRead, Name: name}
	if m.IsMatrix {
		h.DataType = Matrix
		h.Rows, h.Cols, h.NNZ = m.Rows, m.Cols, m.NNZ
	} else if m.IsStr {
		h.DataType = String
		h.StrValue = m.Str
	} else {
		h.DataType = Scalar
	}
	estimateMem(h)
	ctx.treads[name] = h
	return h, nil
}

func (c *Compiler) unary(ctx *dagCtx, op string, x *Hop) *Hop {
	// !! elimination and -(-x).
	if prev, ok := xAsUnary(x, op); ok && (op == "!" || op == "-") {
		return prev
	}
	h := c.newHop(ctx, KindUnary, op, x)
	h.DataType = x.DataType
	return c.seal(ctx, h)
}

func xAsUnary(x *Hop, op string) (*Hop, bool) {
	if x.Kind == KindUnary && x.Op == op && len(x.Inputs) == 1 {
		return x.Inputs[0], true
	}
	return nil, false
}

func (c *Compiler) binOp(e *dml.BinOp, ctx *dagCtx) (*Hop, error) {
	l, err := c.expr(e.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(e.Right, ctx)
	if err != nil {
		return nil, err
	}
	if e.Op == "%*%" {
		if l.DataType != Matrix || r.DataType != Matrix {
			return nil, fmt.Errorf("%%*%% requires matrix operands")
		}
		if l.Cols != Unknown && r.Rows != Unknown && l.Cols != r.Rows {
			return nil, fmt.Errorf("matrix multiply dimension mismatch %dx%d %%*%% %dx%d", l.Rows, l.Cols, r.Rows, r.Cols)
		}
		h := c.newHop(ctx, KindMatMul, "%*%", l, r)
		h.DataType = Matrix
		return c.seal(ctx, h), nil
	}
	return c.binary(ctx, e.Op, l, r)
}

func (c *Compiler) binary(ctx *dagCtx, op string, l, r *Hop) (*Hop, error) {
	if _, ok := matrix.ParseBinary(op); !ok {
		return nil, fmt.Errorf("unsupported operator %q", op)
	}
	// String concatenation via '+'.
	if op == "+" && (l.DataType == String || r.DataType == String) {
		h := c.newHop(ctx, KindBinary, "+", l, r)
		h.DataType = String
		return c.seal(ctx, h), nil
	}
	// Algebraic rewrites.
	switch {
	case op == "*" && l == r && l.DataType == Matrix:
		// x*x => sq(x): one fewer pass over x (paper Appendix B).
		return c.unary(ctx, "sq", l), nil
	case op == "^" && r.Kind == KindLit && r.Value == 2 && l.DataType == Matrix:
		return c.unary(ctx, "sq", l), nil
	case op == "^" && r.Kind == KindLit && r.Value == 1:
		return l, nil
	case op == "*" && r.Kind == KindLit && r.Value == 1:
		return l, nil
	case op == "*" && l.Kind == KindLit && l.Value == 1:
		return r, nil
	case op == "+" && r.Kind == KindLit && r.Value == 0 && l.DataType == Matrix:
		return l, nil
	case op == "+" && l.Kind == KindLit && l.Value == 0 && r.DataType == Matrix:
		return r, nil
	}
	h := c.newHop(ctx, KindBinary, op, l, r)
	if l.DataType == Matrix || r.DataType == Matrix {
		h.DataType = Matrix
	} else {
		h.DataType = Scalar
	}
	return c.seal(ctx, h), nil
}

func (c *Compiler) rightIndex(e *dml.Index, ctx *dagCtx) (*Hop, error) {
	x, err := c.expr(e.Target, ctx)
	if err != nil {
		return nil, err
	}
	if x.DataType != Matrix {
		return nil, fmt.Errorf("indexing requires a matrix")
	}
	bounds, err := c.indexBounds(e, ctx)
	if err != nil {
		return nil, err
	}
	h := c.newHop(ctx, KindIndex, "", append([]*Hop{x}, bounds...)...)
	h.DataType = Matrix
	// Single-cell selection yields a scalar-like 1x1 matrix; DML requires
	// as.scalar for scalar use, which we honor via KindCast.
	return c.seal(ctx, h), nil
}

func (c *Compiler) indexBounds(e *dml.Index, ctx *dagCtx) ([]*Hop, error) {
	build := func(r *dml.IndexRange) (*Hop, *Hop, error) {
		if r == nil {
			return nil, nil, nil
		}
		lo, err := c.expr(r.Lo, ctx)
		if err != nil {
			return nil, nil, err
		}
		if r.Hi == nil {
			return lo, nil, nil
		}
		hi, err := c.expr(r.Hi, ctx)
		if err != nil {
			return nil, nil, err
		}
		return lo, hi, nil
	}
	rl, ru, err := build(e.Row)
	if err != nil {
		return nil, err
	}
	cl, cu, err := build(e.Col)
	if err != nil {
		return nil, err
	}
	return []*Hop{rl, ru, cl, cu}, nil
}

func (c *Compiler) leftIndex(st *dml.Assign, value *Hop, ctx *dagCtx) (*Hop, error) {
	target, err := c.variable(st.Target, ctx)
	if err != nil {
		return nil, err
	}
	if target.DataType != Matrix {
		return nil, fmt.Errorf("left indexing requires matrix target %q", st.Target)
	}
	bounds, err := c.indexBounds(st.LIndex, ctx)
	if err != nil {
		return nil, err
	}
	h := c.newHop(ctx, KindLeftIndex, "", append([]*Hop{target, value}, bounds...)...)
	h.DataType = Matrix
	return c.seal(ctx, h), nil
}

// callStmt compiles a statement-level call (print, write, stop).
func (c *Compiler) callStmt(call *dml.Call, ctx *dagCtx) (*Hop, error) {
	switch call.Name {
	case "print":
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("print takes one argument")
		}
		arg, err := c.expr(call.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		h := c.newHop(ctx, KindPrint, "", arg)
		h.DataType = Scalar
		finalize(h)
		return h, nil
	case "stop":
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("stop takes one argument")
		}
		arg, err := c.expr(call.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		h := c.newHop(ctx, KindStop, "", arg)
		h.DataType = Scalar
		finalize(h)
		return h, nil
	case "write":
		if len(call.Args) != 2 {
			return nil, fmt.Errorf("write takes (value, path)")
		}
		v, err := c.expr(call.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		path, err := c.expr(call.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		if path.DataType != String {
			return nil, fmt.Errorf("write path must be a string")
		}
		h := c.newHop(ctx, KindWrite, "", v)
		h.Name = path.StrValue
		h.DataType = v.DataType
		finalize(h)
		return h, nil
	default:
		return nil, fmt.Errorf("unsupported statement call %q", call.Name)
	}
}
