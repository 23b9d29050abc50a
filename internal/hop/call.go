package hop

import (
	"fmt"

	"elasticml/internal/dml"
)

// call compiles a builtin function call in expression position.
func (c *Compiler) call(e *dml.Call, ctx *dagCtx) (*Hop, error) {
	args := make([]*Hop, len(e.Args))
	for i, a := range e.Args {
		h, err := c.expr(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = h
	}
	named := make(map[string]*Hop, len(e.Named))
	for k, v := range e.Named {
		h, err := c.expr(v, ctx)
		if err != nil {
			return nil, err
		}
		named[k] = h
	}
	if e.Name == "seq" && len(args) == 2 {
		args = append(args, c.lit(ctx, 1)) // the default step
	}
	b, ok := builtins[e.Name]
	if ok && len(args) != b.arity {
		return nil, fmt.Errorf("%s expects %d arguments, got %d", e.Name, b.arity, len(args))
	}

	switch e.Name {
	case "read":
		if args[0].DataType != String {
			return nil, fmt.Errorf("read path must be a string")
		}
		return c.readHop(ctx, args[0].StrValue)

	case "matrix":
		v := argOrNamed(args, named, 0, "")
		rows := argOrNamed(args, named, 1, "rows")
		cols := argOrNamed(args, named, 2, "cols")
		if v == nil || rows == nil || cols == nil {
			return nil, fmt.Errorf("matrix requires value, rows=, cols=")
		}
		return c.sealed(ctx, KindDataGen, "matrix", Matrix, v, rows, cols), nil

	case "seq":
		return c.sealed(ctx, KindSeq, "seq", Matrix, args...), nil

	case "nrow", "ncol":
		x := args[0]
		if x.DataType != Matrix {
			return nil, fmt.Errorf("%s requires a matrix", e.Name)
		}
		dim := x.Rows
		if e.Name == "ncol" {
			dim = x.Cols
		}
		if dim != Unknown {
			return c.lit(ctx, float64(dim)), nil
		}
		return c.sealed(ctx, KindAggUnary, e.Name, Scalar, x), nil

	case "sum":
		return c.sumOf(ctx, args[0])

	case "mean", "trace":
		return c.agg(ctx, e.Name, args[0])

	case "min", "max":
		switch len(args) {
		case 1:
			return c.agg(ctx, e.Name, args[0])
		case 2:
			return c.binary(ctx, e.Name, args[0], args[1])
		default:
			return nil, fmt.Errorf("%s expects 1 or 2 arguments", e.Name)
		}

	case "t":
		x := args[0]
		// t(t(X)) => X.
		if x.Kind == KindReorg && x.Op == "t" {
			return x.Inputs[0], nil
		}
		return c.sealed(ctx, KindReorg, "t", Matrix, x), nil

	case "ppred":
		opArg := args[2]
		if opArg.DataType != String {
			return nil, fmt.Errorf("ppred operator must be a string literal")
		}
		return c.binary(ctx, opArg.StrValue, args[0], args[1])

	case "sqrt", "abs", "exp", "log", "round", "floor", "ceil", "sign":
		return c.unary(ctx, e.Name, args[0]), nil

	case "as.scalar", "castAsScalar":
		x := args[0]
		if x.DataType != Matrix {
			return x, nil
		}
		return c.sealed(ctx, KindCast, "as.scalar", Scalar, x), nil
	}
	if !ok {
		return nil, fmt.Errorf("unsupported builtin %q", e.Name)
	}
	return c.sealed(ctx, b.kind, b.op, Matrix, args...), nil
}

// builtins holds how many arguments each builtin takes, but matrix (whose
// arguments may be named) and min and max (one or two). A builtin with an
// operator builds one matrix hop of its kind over its arguments; the
// others are compiled by call's switch.
var builtins = map[string]struct {
	kind  Kind
	op    string
	arity int
}{
	"read": {arity: 1}, "seq": {arity: 3}, "ppred": {arity: 3},
	"nrow": {arity: 1}, "ncol": {arity: 1}, "sum": {arity: 1}, "mean": {arity: 1}, "trace": {arity: 1},
	"t": {arity: 1}, "as.scalar": {arity: 1}, "castAsScalar": {arity: 1},
	"sqrt": {arity: 1}, "abs": {arity: 1}, "exp": {arity: 1}, "log": {arity: 1},
	"round": {arity: 1}, "floor": {arity: 1}, "ceil": {arity: 1}, "sign": {arity: 1},

	"rowSums": {KindAggUnary, "rowSums", 1},
	"colSums": {KindAggUnary, "colSums", 1},
	"rowMaxs": {KindAggUnary, "rowMaxs", 1},
	"append":  {KindAppend, "cbind", 2},
	"cbind":   {KindAppend, "cbind", 2},
	"rbind":   {KindAppend, "rbind", 2},
	"table":   {KindTable, "table", 2},
	"diag":    {KindDiag, "diag", 1},
	"solve":   {KindSolve, "solve", 2},
}

// readHop stats the input file on the simulated DFS and constructs a
// persistent-read hop with its metadata. A template's read has unknown
// size: a re-size stats the file.
func (c *Compiler) readHop(ctx *dagCtx, path string) (*Hop, error) {
	h := &Hop{Kind: KindRead, Name: path, DataType: Matrix, Rows: Unknown, Cols: Unknown, NNZ: Unknown}
	if !c.template {
		if c.FS == nil {
			return nil, fmt.Errorf("read(%q): no file system attached to compiler", path)
		}
		f, err := c.FS.Stat(path)
		if err != nil {
			return nil, err
		}
		h.Rows, h.Cols, h.NNZ = f.Rows, f.Cols, f.NNZ
	}
	h.ID = c.id()
	estimateMem(h)
	return ctx.dedup(h), nil
}

// agg constructs a full aggregate producing a scalar.
func (c *Compiler) agg(ctx *dagCtx, op string, x *Hop) (*Hop, error) {
	if x.DataType != Matrix {
		// Aggregate of a scalar is the scalar itself.
		return x, nil
	}
	return c.sealed(ctx, KindAggUnary, op, Scalar, x), nil
}

// sumOf applies the tertiary-aggregate and sum-of-squares rewrites before
// falling back to a plain sum (paper Appendix B: physical operators for
// special patterns like sum(v1*v2*v3)).
func (c *Compiler) sumOf(ctx *dagCtx, x *Hop) (*Hop, error) {
	if x.DataType != Matrix {
		return x, nil
	}
	// sum(sq(x)) => sumsq(x).
	if x.Kind == KindUnary && x.Op == "sq" {
		return c.sealed(ctx, KindAggUnary, "sumsq", Scalar, x.Inputs[0]), nil
	}
	// sum(a*b) and sum(a*b*c) => fused ternary aggregates.
	if x.Kind == KindBinary && x.Op == "*" && len(x.Inputs) == 2 &&
		x.Inputs[0].DataType == Matrix && x.Inputs[1].DataType == Matrix {
		a, b := x.Inputs[0], x.Inputs[1]
		if a.Kind == KindBinary && a.Op == "*" && len(a.Inputs) == 2 &&
			a.Inputs[0].DataType == Matrix && a.Inputs[1].DataType == Matrix {
			return c.sealed(ctx, KindTernaryAgg, "tak+*", Scalar, a.Inputs[0], a.Inputs[1], b), nil
		}
		return c.sealed(ctx, KindTernaryAgg, "tak+*", Scalar, a, b), nil
	}
	return c.agg(ctx, "sum", x)
}

func argOrNamed(args []*Hop, named map[string]*Hop, pos int, name string) *Hop {
	if pos < len(args) {
		return args[pos]
	}
	if name != "" {
		return named[name]
	}
	return nil
}
