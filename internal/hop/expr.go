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

// newCtx returns an empty context over meta: during a build, the
// scratch's, since a build is done with one DAG's context before it
// starts the next.
func (c *Compiler) newCtx(meta SymTab) *dagCtx {
	var ctx *dagCtx
	if c.scratch != nil {
		ctx = &c.scratch.ctx
	} else {
		ctx = new(dagCtx)
	}
	if ctx.cse == nil {
		ctx.locals, ctx.treads, ctx.cse = make(map[string]*Hop), make(map[string]*Hop), make(map[string]*Hop)
	} else {
		clear(ctx.locals)
		clear(ctx.treads)
		clear(ctx.cse)
	}
	ctx.meta, ctx.order, ctx.key = meta, ctx.order[:0], ctx.keyBuf[:0]
	return ctx
}

// buildGeneric compiles a run of straight-line statements into one generic
// block with a single DAG.
func (c *Compiler) buildGeneric(stmts []dml.Stmt, meta SymTab, first, last int) (*Block, error) {
	ctx, start := c.newCtx(meta), c.nextID
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
		tw := c.newHop(KindTWrite, "", v)
		tw.Name, tw.DataType = name, v.DataType
		finalize(tw)
		roots = append(roots, tw)
		meta[name] = metaOf(tw)
	}
	b := &Block{Kind: dml.GenericBlock, Roots: roots,
		FirstLine: first, LastLine: last, hint: int(c.nextID - start)}
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

// newHop only allocates a hop and draws its ID. Its caller sets the data
// type, and seal infers sizes, folds and deduplicates; a root
// (twrite/write/print/stop) is finalized without folding or CSE.
func (c *Compiler) newHop(kind Kind, op string, inputs ...*Hop) *Hop {
	return &Hop{ID: c.id(), Kind: kind, Op: op, Inputs: inputs}
}

// sealed returns the sealed hop of kind, op and data type dt over inputs.
func (c *Compiler) sealed(ctx *dagCtx, kind Kind, op string, dt DataType, inputs ...*Hop) *Hop {
	h := c.newHop(kind, op, inputs...)
	h.DataType = dt
	return c.seal(ctx, h)
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
// literal's data type and value, and the inputs' IDs; looking it up
// allocates nothing.
func (ctx *dagCtx) lookup(h *Hop) (*Hop, bool) {
	ctx.key = appendCSEKey(ctx.key[:0], h)
	prev, ok := ctx.cse[string(ctx.key)]
	return prev, ok
}

// insert records h under the key the last lookup built, one string.
func (ctx *dagCtx) insert(h *Hop) { ctx.cse[string(ctx.key)] = h }

// appendCSEKey appends h's CSE key to dst: "kind|op|name", then
// "|dataType|value|quoted string" for a literal, then "|inputID" or "|_" per
// input. The data type keeps the scalar 0 and the string "" apart.
func appendCSEKey(dst []byte, h *Hop) []byte {
	dst = strconv.AppendInt(dst, int64(h.Kind), 10)
	dst = append(dst, '|')
	dst = append(dst, h.Op...)
	dst = append(dst, '|')
	dst = append(dst, h.Name...)
	if h.Kind == KindLit {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(h.DataType), 10)
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
		return c.param(e.Name, ctx)
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

// param compiles the $ parameter name to a literal of its value. A
// template's compiler reads a numeric parameter as an unknown scalar
// under its reserved name, which a re-size folds into the literal, and
// takes a string's value from its table, as the template's kinds key
// holds it.
func (c *Compiler) param(name string, ctx *dagCtx) (*Hop, error) {
	var m VarMeta
	var err error
	if c.template {
		var ok bool
		if m, ok = ctx.meta[paramName(name)]; !ok {
			err = fmt.Errorf("undefined parameter $%s", name)
		}
	} else {
		m, err = paramMeta(c.Params, name)
	}
	switch {
	case err != nil:
		return nil, err
	case m.IsStr:
		return c.strLit(ctx, m.Str), nil
	case m.Known:
		return c.lit(ctx, m.Val), nil
	}
	return c.variable(paramName(name), ctx)
}

// paramName is the reserved name under which a template reads the $
// parameter name: no variable's name starts with "$".
func paramName(name string) string { return "$" + name }

// paramMeta returns the metadata of the $ parameter name in params: a
// known scalar (a bool is 1 or 0) or a string.
func paramMeta(params map[string]interface{}, name string) (VarMeta, error) {
	v, ok := params[name]
	if !ok {
		return VarMeta{}, fmt.Errorf("undefined parameter $%s", name)
	}
	switch v := v.(type) {
	case float64:
		return VarMeta{Known: true, Val: v}, nil
	case int:
		return VarMeta{Known: true, Val: float64(v)}, nil
	case string:
		return VarMeta{IsStr: true, Str: v}, nil
	case bool:
		if v {
			return VarMeta{Known: true, Val: 1}, nil
		}
		return VarMeta{Known: true}, nil
	}
	return VarMeta{}, fmt.Errorf("parameter $%s has unsupported type %T", name, v)
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
	h := &Hop{ID: id, Kind: KindTRead, Name: name, DataType: Scalar}
	if m.IsMatrix {
		h.DataType, h.Rows, h.Cols, h.NNZ = Matrix, m.Rows, m.Cols, m.NNZ
	} else if m.IsStr {
		h.DataType, h.StrValue = String, m.Str
	}
	estimateMem(h)
	ctx.treads[name] = h
	return h, nil
}

func (c *Compiler) unary(ctx *dagCtx, op string, x *Hop) *Hop {
	// -(-x) is x; !!x is not, it is x != 0.
	if op == "-" && x.Kind == KindUnary && x.Op == "-" {
		return x.Inputs[0]
	}
	return c.sealed(ctx, KindUnary, op, x.DataType, x)
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
		return c.sealed(ctx, KindMatMul, "%*%", Matrix, l, r), nil
	}
	return c.binary(ctx, e.Op, l, r)
}

func (c *Compiler) binary(ctx *dagCtx, op string, l, r *Hop) (*Hop, error) {
	if _, ok := matrix.ParseBinary(op); !ok {
		return nil, fmt.Errorf("unsupported operator %q", op)
	}
	// String concatenation via '+'.
	if op == "+" && (l.DataType == String || r.DataType == String) {
		return c.sealed(ctx, KindBinary, "+", String, l, r), nil
	}
	if x, sq, ok := binaryRewrite(op, l, r); ok {
		if sq {
			x = c.unary(ctx, "sq", x)
		}
		return x, nil
	}
	dt := Scalar
	if l.DataType == Matrix || r.DataType == Matrix {
		dt = Matrix
	}
	return c.sealed(ctx, KindBinary, op, dt, l, r), nil
}

// binaryRewrite is the build's algebraic rewrite of l op r, the one rule
// the re-size also reads: ok reports that one applies, and l op r then
// reduces to x, or to sq(x) when sq is set (x*x and x^2 over a matrix make
// one fewer pass over x, paper Appendix B). A string concatenation is never
// rewritten.
func binaryRewrite(op string, l, r *Hop) (x *Hop, sq, ok bool) {
	if op == "+" && (l.DataType == String || r.DataType == String) {
		return nil, false, false
	}
	isLit := func(h *Hop, v float64) bool { return h.Kind == KindLit && h.Value == v }
	switch {
	case op == "*" && l == r && l.DataType == Matrix, op == "^" && isLit(r, 2) && l.DataType == Matrix:
		return l, true, true
	case op == "^" && isLit(r, 1), op == "*" && isLit(r, 1), op == "+" && isLit(r, 0) && l.DataType == Matrix:
		return l, false, true
	case op == "*" && isLit(l, 1), op == "+" && isLit(l, 0) && r.DataType == Matrix:
		return r, false, true
	}
	return nil, false, false
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
	// Single-cell selection yields a scalar-like 1x1 matrix; DML requires
	// as.scalar for scalar use, which we honor via KindCast.
	return c.sealed(ctx, KindIndex, "", Matrix, append([]*Hop{x}, bounds...)...), nil
}

func (c *Compiler) indexBounds(e *dml.Index, ctx *dagCtx) ([]*Hop, error) {
	bounds := make([]*Hop, 4) // row lo, row hi, column lo, column hi
	for i, r := range [2]*dml.IndexRange{e.Row, e.Col} {
		if r == nil {
			continue
		}
		for j, x := range [2]dml.Expr{r.Lo, r.Hi} {
			if x == nil {
				continue
			}
			h, err := c.expr(x, ctx)
			if err != nil {
				return nil, err
			}
			bounds[2*i+j] = h
		}
	}
	return bounds, nil
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
	return c.sealed(ctx, KindLeftIndex, "", Matrix, append([]*Hop{target, value}, bounds...)...), nil
}

// callStmt compiles a statement-level call (print, write, stop).
func (c *Compiler) callStmt(call *dml.Call, ctx *dagCtx) (*Hop, error) {
	switch call.Name {
	case "print", "stop":
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("%s takes one argument", call.Name)
		}
		arg, err := c.expr(call.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		kind := KindPrint
		if call.Name == "stop" {
			kind = KindStop
		}
		h := c.newHop(kind, "", arg)
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
		h := c.newHop(KindWrite, "", v)
		h.Name, h.DataType = path.StrValue, v.DataType
		finalize(h)
		return h, nil
	default:
		return nil, fmt.Errorf("unsupported statement call %q", call.Name)
	}
}
