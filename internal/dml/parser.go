package dml

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse lexes and parses a DML script into a Program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{Funcs: make(map[string]*Function), Lines: countLines(src)}
	for !p.at(TokEOF) {
		st, fn, err := p.parseTopLevel()
		if err != nil {
			return nil, err
		}
		if fn != nil {
			if _, dup := prog.Funcs[fn.Name]; dup {
				return nil, fmt.Errorf("dml: line %d: duplicate function %q", fn.SrcLine, fn.Name)
			}
			prog.Funcs[fn.Name] = fn
		} else if st != nil {
			prog.Stmts = append(prog.Stmts, st)
		}
	}
	return prog, nil
}

func countLines(src string) int {
	if src == "" {
		return 0
	}
	n := strings.Count(src, "\n")
	if !strings.HasSuffix(src, "\n") {
		n++
	}
	return n
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) at(k TokenKind) bool { return p.cur().Kind == k }
func (p *parser) atOp(op string) bool { return p.cur().Kind == TokOp && p.cur().Text == op }
func (p *parser) atKw(kw string) bool { return p.cur().Kind == TokKeyword && p.cur().Text == kw }
func (p *parser) next() Token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if !p.at(k) {
		return Token{}, fmt.Errorf("dml: line %d: expected %s, got %s", p.cur().Line, k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectOp(op string) error {
	if !p.atOp(op) {
		return fmt.Errorf("dml: line %d: expected %q, got %s", p.cur().Line, op, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) skipSemis() {
	for p.at(TokSemicolon) {
		p.next()
	}
}

// parseTopLevel parses either a function definition or a statement.
func (p *parser) parseTopLevel() (Stmt, *Function, error) {
	p.skipSemis()
	if p.at(TokEOF) {
		return nil, nil, nil
	}
	// Function definition: IDENT = function (...)
	if p.at(TokIdent) && p.peek().Kind == TokOp && p.peek().Text == "=" {
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == TokKeyword && p.toks[p.pos+2].Text == "function" {
			return p.parseFunction()
		}
	}
	st, err := p.parseStmt()
	return st, nil, err
}

func (p *parser) parseFunction() (Stmt, *Function, error) {
	nameTok := p.next() // ident
	p.next()            // '='
	fnTok := p.next()   // 'function'
	fn := &Function{Name: nameTok.Text, SrcLine: fnTok.Line}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, nil, err
	}
	for !p.at(TokRParen) {
		t, err := p.expect(TokIdent)
		if err != nil {
			return nil, nil, err
		}
		fn.Params = append(fn.Params, t.Text)
		// Optional default value "param = expr" — recorded but ignored.
		if p.atOp("=") {
			p.next()
			if _, err := p.parseExpr(); err != nil {
				return nil, nil, err
			}
		}
		if p.at(TokComma) {
			p.next()
		}
	}
	p.next() // ')'
	if !p.atKw("return") {
		return nil, nil, fmt.Errorf("dml: line %d: function %q missing return clause", fn.SrcLine, fn.Name)
	}
	p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, nil, err
	}
	for !p.at(TokRParen) {
		t, err := p.expect(TokIdent)
		if err != nil {
			return nil, nil, err
		}
		fn.Returns = append(fn.Returns, t.Text)
		if p.at(TokComma) {
			p.next()
		}
	}
	p.next() // ')'
	body, err := p.parseBlock()
	if err != nil {
		return nil, nil, err
	}
	fn.Body = body
	return nil, fn, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for {
		p.skipSemis()
		if p.at(TokRBrace) {
			p.next()
			return stmts, nil
		}
		if p.at(TokEOF) {
			return nil, fmt.Errorf("dml: unexpected EOF in block")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKw("if"):
		return p.parseIf()
	case p.atKw("while"):
		return p.parseWhile()
	case p.atKw("for") || p.atKw("parfor"):
		return p.parseFor()
	case p.at(TokIdent):
		return p.parseAssignOrCall()
	default:
		return nil, fmt.Errorf("dml: line %d: unexpected %s at statement start", p.cur().Line, p.cur())
	}
}

func (p *parser) parseIf() (Stmt, error) {
	line := p.next().Line // 'if'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	thenB, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	var elseB []Stmt
	if p.atKw("else") {
		p.next()
		if p.atKw("if") {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			elseB = []Stmt{nested}
		} else {
			elseB, err = p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return &If{Cond: cond, Then: thenB, Else: elseB, SrcLine: line}, nil
}

func (p *parser) parseStmtOrBlock() ([]Stmt, error) {
	if p.at(TokLBrace) {
		return p.parseBlock()
	}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{st}, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	line := p.next().Line
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body, SrcLine: line}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	tok := p.next() // for/parfor
	line := tok.Line
	parallel := tok.Text == "parfor"
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	v, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if !p.atKw("in") {
		return nil, fmt.Errorf("dml: line %d: expected 'in' in for header", p.cur().Line)
	}
	p.next()
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	return &For{Var: v.Text, From: from, To: to, Body: body, Parallel: parallel, SrcLine: line}, nil
}

func (p *parser) parseAssignOrCall() (Stmt, error) {
	start := p.pos
	id := p.next() // ident
	// Bare call statement: print(...), write(...), user functions.
	if p.at(TokLParen) {
		p.pos = start
		expr, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		call, ok := expr.(*Call)
		if !ok {
			return nil, fmt.Errorf("dml: line %d: expression statement must be a call", id.Line)
		}
		p.skipSemis()
		return &ExprStmt{Call: call, SrcLine: id.Line}, nil
	}
	// Left indexing: X[r, c] = expr.
	var lidx *Index
	if p.at(TokLBracket) {
		idx, err := p.parseIndexSuffix(&Ident{Name: id.Text})
		if err != nil {
			return nil, err
		}
		lidx = idx
	}
	// Multi-assign from function call: [a, b] = f(...) is not in our DML
	// subset; the scripts use single returns.
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSemis()
	return &Assign{Target: id.Text, LIndex: lidx, Expr: expr, SrcLine: id.Line}, nil
}

// Expression parsing with R-like precedence.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atOp("|") || p.atOp("||") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "|", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atOp("&") || p.atOp("&&") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atOp("!") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "!", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	for p.atOp("==") || p.atOp("!=") || p.atOp("<") || p.atOp("<=") || p.atOp(">") || p.atOp(">=") {
		op := p.next().Text
		right, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAddSub() (Expr, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := p.next().Text
		right, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMulDiv() (Expr, error) {
	left, err := p.parseMatMul()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") {
		op := p.next().Text
		right, err := p.parseMatMul()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMatMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atOp("%*%") {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "%*%", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atOp("-") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", X: x}, nil
	}
	// '!' in operand position (e.g. "1 + !x") binds tightly, as in R.
	if p.atOp("!") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "!", X: x}, nil
	}
	if p.atOp("+") {
		p.next()
		return p.parseUnary()
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	base, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.atOp("^") {
		p.next()
		exp, err := p.parseUnary() // right associative
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: "^", Left: base, Right: exp}, nil
	}
	return base, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(TokLBracket) {
		idx, err := p.parseIndexSuffix(e)
		if err != nil {
			return nil, err
		}
		e = idx
	}
	return e, nil
}

// parseIndexSuffix parses "[rows, cols]" after target.
func (p *parser) parseIndexSuffix(target Expr) (*Index, error) {
	p.next() // '['
	idx := &Index{Target: target}
	parseRange := func() (*IndexRange, error) {
		if p.at(TokComma) || p.at(TokRBracket) {
			return nil, nil // empty => all
		}
		lo, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		r := &IndexRange{Lo: lo}
		if p.atOp(":") {
			p.next()
			hi, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			r.Hi = hi
		}
		return r, nil
	}
	var err error
	idx.Row, err = parseRange()
	if err != nil {
		return nil, err
	}
	if p.at(TokComma) {
		p.next()
		idx.Col, err = parseRange()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	return idx, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("dml: line %d: bad number %q", t.Line, t.Text)
		}
		return &Num{Value: v}, nil
	case TokString:
		p.next()
		return &Str{Value: t.Text}, nil
	case TokParam:
		p.next()
		return &Param{Name: t.Text}, nil
	case TokKeyword:
		if t.Text == "TRUE" || t.Text == "FALSE" {
			p.next()
			return &Bool{Value: t.Text == "TRUE"}, nil
		}
		return nil, fmt.Errorf("dml: line %d: unexpected keyword %q in expression", t.Line, t.Text)
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			return p.parseCall(t)
		}
		return &Ident{Name: t.Text}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("dml: line %d: unexpected %s in expression", t.Line, t)
	}
}

func (p *parser) parseCall(name Token) (Expr, error) {
	p.next() // '('
	call := &Call{Name: name.Text}
	for !p.at(TokRParen) {
		// Named argument: ident '=' expr (but not ident '==').
		if p.at(TokIdent) && p.peek().Kind == TokOp && p.peek().Text == "=" {
			key := p.next().Text
			p.next() // '='
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if call.Named == nil {
				call.Named = make(map[string]Expr)
			}
			call.Named[key] = v
		} else {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		if p.at(TokComma) {
			p.next()
		} else if !p.at(TokRParen) {
			return nil, fmt.Errorf("dml: line %d: expected ',' or ')' in call to %s", p.cur().Line, name.Text)
		}
	}
	p.next() // ')'
	return call, nil
}
