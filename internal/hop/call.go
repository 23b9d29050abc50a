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
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d arguments, got %d", e.Name, n, len(args))
		}
		return nil
	}

	switch e.Name {
	case "read":
		if err := need(1); err != nil {
			return nil, err
		}
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
		if len(args) == 2 {
			args = append(args, c.lit(ctx, 1))
		}
		if err := need(3); err != nil {
			return nil, err
		}
		return c.sealed(ctx, KindSeq, "seq", Matrix, args...), nil

	case "nrow", "ncol":
		if err := need(1); err != nil {
			return nil, err
		}
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
		if err := need(1); err != nil {
			return nil, err
		}
		return c.sumOf(ctx, args[0])

	case "mean", "trace":
		if err := need(1); err != nil {
			return nil, err
		}
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
		if err := need(1); err != nil {
			return nil, err
		}
		x := args[0]
		// t(t(X)) => X.
		if x.Kind == KindReorg && x.Op == "t" {
			return x.Inputs[0], nil
		}
		return c.sealed(ctx, KindReorg, "t", Matrix, x), nil

	case "ppred":
		if err := need(3); err != nil {
			return nil, err
		}
		opArg := args[2]
		if opArg.DataType != String {
			return nil, fmt.Errorf("ppred operator must be a string literal")
		}
		return c.binary(ctx, opArg.StrValue, args[0], args[1])

	case "sqrt", "abs", "exp", "log", "round", "floor", "ceil", "sign":
		if err := need(1); err != nil {
			return nil, err
		}
		return c.unary(ctx, e.Name, args[0]), nil

	case "as.scalar", "castAsScalar":
		if err := need(1); err != nil {
			return nil, err
		}
		x := args[0]
		if x.DataType != Matrix {
			return x, nil
		}
		return c.sealed(ctx, KindCast, "as.scalar", Scalar, x), nil
	}
	m, ok := matrixBuiltins[e.Name]
	if !ok {
		return nil, fmt.Errorf("unsupported builtin %q", e.Name)
	}
	if err := need(m.arity); err != nil {
		return nil, err
	}
	return c.sealed(ctx, m.kind, m.op, Matrix, args...), nil
}

// matrixBuiltins are the builtins that build one matrix hop over their
// arguments: its kind and operator, and how many arguments they take.
var matrixBuiltins = map[string]struct {
	kind  Kind
	op    string
	arity int
}{
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
