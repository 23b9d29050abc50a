package dml

import "fmt"

// InlineFunctions expands user-defined function calls into the main
// statement list: parameter bindings, the renamed function body, and the
// result assignment are spliced at the call site. DML functions see only
// their parameters, so renaming every identifier in the body with a unique
// prefix preserves semantics. A function call must be the entire right-hand
// side of an assignment (the form used in practice). A body spliced in
// nests as deep as its call site does, so the result is held to Parse's
// maxNesting again, and its loops to MaxLoopNesting.
func InlineFunctions(prog *Program) (_ []Stmt, err error) {
	defer catch(&err)
	in := &inliner{funcs: prog.Funcs}
	return in.stmts(prog.Stmts, 0, 0, 0), nil
}

// MaxLoopNesting bounds how many loops may enclose one another once
// functions are inlined. The compile is linear in the depth, but the cost
// model costs a loop body twice per enclosing loop and the simulator runs
// a loop whose predicate it cannot fold 5 times per trip of its parent:
// preparing a job of k nested while (sum(X) > 0) loops took 6.2 ms at
// k = 6, 29 ms at 7, 136 ms at 8 and 775 ms at 9 (2-vCPU box). Every
// paper script, corpus program and generated program nests at most 2.
const MaxLoopNesting = 6

// maxInlineDepth bounds how deeply calls nest while they expand, which
// stops a recursive function.
const maxInlineDepth = 16

type inliner struct {
	funcs   map[string]*Function
	counter int
	// site is the line of the call the expansion in progress started
	// from, and fn the function it called.
	site int
	fn   string
}

// stmts inlines the calls in list. Its statements sit inside nest
// statements of the result, loops of them loops, and inside calls
// expansions.
func (in *inliner) stmts(list []Stmt, calls, nest, loops int) []Stmt {
	if calls > maxInlineDepth {
		errorf("function inlining exceeded depth %d (recursion?)", maxInlineDepth)
	}
	var out []Stmt
	for _, s := range list {
		switch st := s.(type) {
		case *Assign:
			if call, ok := st.Expr.(*Call); ok {
				if fn, isUser := in.funcs[call.Name]; isUser {
					out = append(out, in.expand(fn, call, []string{st.Target}, st.SrcLine, calls, nest, loops)...)
					continue
				}
			}
			out = append(out, st)
		case *ExprStmt:
			if fn, isUser := in.funcs[st.Call.Name]; isUser {
				out = append(out, in.expand(fn, st.Call, nil, st.SrcLine, calls, nest, loops)...)
				continue
			}
			out = append(out, st)
		case *If:
			out = append(out, &If{Cond: st.Cond, Then: in.stmts(st.Then, calls, nest+1, loops),
				Else: in.stmts(st.Else, calls, nest+1, loops), SrcLine: st.SrcLine})
		case *While:
			out = append(out, &While{Cond: st.Cond, Body: in.body(st.Body, st.SrcLine, calls, nest, loops), SrcLine: st.SrcLine})
		case *For:
			out = append(out, &For{Var: st.Var, From: st.From, To: st.To, Body: in.body(st.Body, st.SrcLine, calls, nest, loops),
				Parallel: st.Parallel, SrcLine: st.SrcLine})
		default:
			out = append(out, s)
		}
	}
	return out
}

// body inlines the calls in the body of a loop at line, which sits inside
// nest statements and loops loops, and refuses it past MaxLoopNesting. A
// loop of a spliced body is reported at the call it came from.
func (in *inliner) body(list []Stmt, line, calls, nest, loops int) []Stmt {
	if loops == MaxLoopNesting && calls > 0 {
		errorf("line %d: loops nest deeper than %d once %s is inlined", in.site, MaxLoopNesting, in.fn)
	} else if loops == MaxLoopNesting {
		errorf("line %d: loops nest deeper than %d", line, MaxLoopNesting)
	}
	return in.stmts(list, calls, nest+1, loops+1)
}

func (in *inliner) expand(fn *Function, call *Call, targets []string, line, calls, nest, loops int) []Stmt {
	if len(call.Args) != len(fn.Params) {
		errorf("line %d: %s expects %d arguments, got %d",
			line, fn.Name, len(fn.Params), len(call.Args))
	}
	if len(targets) > len(fn.Returns) {
		errorf("line %d: %s returns %d values, %d requested",
			line, fn.Name, len(fn.Returns), len(targets))
	}
	if calls == 0 {
		in.site, in.fn = line, fn.Name
	}
	in.counter++
	prefix := fmt.Sprintf("_%s%d_", fn.Name, in.counter)
	rename := func(name string) string { return prefix + name }

	var out []Stmt
	for i, pname := range fn.Params {
		out = append(out, &Assign{Target: rename(pname), Expr: call.Args[i], SrcLine: line})
	}
	body, h := renameStmts(fn.Body, rename)
	if nest+h > maxNesting {
		errorf("line %d: nesting deeper than %d once %s is inlined", line, maxNesting, fn.Name)
	}
	out = append(out, in.stmts(body, calls+1, nest, loops)...) // inline nested calls
	for i, tgt := range targets {
		out = append(out, &Assign{Target: tgt, Expr: &Ident{Name: rename(fn.Returns[i])}, SrcLine: line})
	}
	return out
}

// renameStmts copies list with every name renamed by rn, and returns the
// height of its tallest statement: a node is one level above its tallest
// child, as Parse counts it.
func renameStmts(list []Stmt, rn func(string) string) ([]Stmt, int) {
	out := make([]Stmt, 0, len(list))
	h := 0
	for _, s := range list {
		switch st := s.(type) {
		case *Assign:
			x, xh := renameExpr(st.Expr, rn)
			a := &Assign{Target: rn(st.Target), Expr: x, SrcLine: st.SrcLine}
			if st.LIndex != nil {
				var ih int
				x, ih = renameExpr(st.LIndex, rn)
				a.LIndex, xh = x.(*Index), max(xh, ih)
			}
			out, h = append(out, a), max(h, 1+xh)
		case *ExprStmt:
			x, xh := renameExpr(st.Call, rn)
			out, h = append(out, &ExprStmt{Call: x.(*Call), SrcLine: st.SrcLine}), max(h, 1+xh)
		case *If:
			cond, ch := renameExpr(st.Cond, rn)
			then, th := renameStmts(st.Then, rn)
			els, eh := renameStmts(st.Else, rn)
			out = append(out, &If{Cond: cond, Then: then, Else: els, SrcLine: st.SrcLine})
			h = max(h, 1+max(ch, th, eh))
		case *While:
			cond, ch := renameExpr(st.Cond, rn)
			body, bh := renameStmts(st.Body, rn)
			out, h = append(out, &While{Cond: cond, Body: body, SrcLine: st.SrcLine}), max(h, 1+max(ch, bh))
		case *For:
			from, fh := renameExpr(st.From, rn)
			to, th := renameExpr(st.To, rn)
			body, bh := renameStmts(st.Body, rn)
			out = append(out, &For{Var: rn(st.Var), From: from, To: to, Body: body,
				Parallel: st.Parallel, SrcLine: st.SrcLine})
			h = max(h, 1+max(fh, th, bh))
		}
	}
	return out, h
}

// renameExpr copies e with every identifier renamed by rn, and returns the
// copy's height.
func renameExpr(e Expr, rn func(string) string) (Expr, int) {
	switch e := e.(type) {
	case nil:
		return nil, 0
	case *Ident:
		return &Ident{Name: rn(e.Name)}, 1
	case *BinOp:
		l, lh := renameExpr(e.Left, rn)
		r, rh := renameExpr(e.Right, rn)
		return &BinOp{Op: e.Op, Left: l, Right: r}, 1 + max(lh, rh)
	case *UnOp:
		x, xh := renameExpr(e.X, rn)
		return &UnOp{Op: e.Op, X: x}, 1 + xh
	case *Call:
		c, h := &Call{Name: e.Name}, 0
		for _, a := range e.Args {
			x, xh := renameExpr(a, rn)
			c.Args, h = append(c.Args, x), max(h, xh)
		}
		if e.Named != nil {
			c.Named = make(map[string]Expr, len(e.Named))
			for k, v := range e.Named {
				x, xh := renameExpr(v, rn)
				c.Named[k], h = x, max(h, xh)
			}
		}
		return c, 1 + h
	case *Index:
		t, th := renameExpr(e.Target, rn)
		row, rh := renameRange(e.Row, rn)
		col, ch := renameRange(e.Col, rn)
		return &Index{Target: t, Row: row, Col: col}, 1 + max(th, rh, ch)
	default:
		return e, 1 // literals and params are immutable
	}
}

func renameRange(r *IndexRange, rn func(string) string) (*IndexRange, int) {
	if r == nil {
		return nil, 0
	}
	lo, lh := renameExpr(r.Lo, rn)
	hi, hh := renameExpr(r.Hi, rn)
	return &IndexRange{Lo: lo, Hi: hi}, 1 + max(lh, hh)
}
