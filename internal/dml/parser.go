package dml

import (
	"fmt"
	"strconv"
	"strings"
)

// maxNesting bounds how deeply a source may nest: the parser's own
// recursion, and the height of the tree it returns, where a left-deep
// operator chain or a run of indexes grows one level per operator. Later
// stages (the block builder, the HOP build, the printers) recurse over the
// tree, so a source holding a frame's worth of "(" or "+x" would cost
// hundreds of megabytes of stack on the goroutine that compiles it; Parse
// refuses it instead.
const maxNesting = 10000

// Parse lexes and parses a DML script into a Program.
func Parse(src string) (_ *Program, err error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	defer catch(&err)
	p := &parser{toks: toks}
	prog := &Program{Funcs: make(map[string]*Function), Lines: countLines(src)}
	for p.skipSemis(); !p.at(TokEOF); p.skipSemis() {
		if !p.atFunction() {
			prog.Stmts = append(prog.Stmts, p.parseStmt())
			continue
		}
		fn := p.parseFunction()
		if _, dup := prog.Funcs[fn.Name]; dup {
			errorf("line %d: duplicate function %q", fn.SrcLine, fn.Name)
		}
		prog.Funcs[fn.Name] = fn
	}
	return prog, nil
}

// dmlError carries the error a parse or an inlining stops at: errorf
// panics with one where the error is found, and catch turns it back into
// the error Parse or InlineFunctions returns.
type dmlError struct{ err error }

func errorf(format string, args ...any) {
	panic(dmlError{fmt.Errorf("dml: "+format, args...)})
}

// catch recovers a dmlError into *errp and re-raises any other panic, so a
// bug still surfaces as one.
func catch(errp *error) {
	if r := recover(); r != nil {
		e, ok := r.(dmlError)
		if !ok {
			panic(r)
		}
		*errp = e.err
	}
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
	toks  []Token
	pos   int
	depth int // recursion into statements and operands, bounded by maxNesting
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

func (p *parser) expect(k TokenKind) Token {
	if !p.at(k) {
		errorf("line %d: expected %s, got %s", p.cur().Line, k, p.cur())
	}
	return p.next()
}

func (p *parser) expectOp(op string) {
	if !p.atOp(op) {
		errorf("line %d: expected %q, got %s", p.cur().Line, op, p.cur())
	}
	p.next()
}

func (p *parser) skipSemis() {
	for p.at(TokSemicolon) {
		p.next()
	}
}

// nest enters one more level of recursion; the caller leaves it by
// decrementing p.depth.
func (p *parser) nest() {
	if p.depth++; p.depth > maxNesting {
		errorf("line %d: nesting deeper than %d", p.cur().Line, maxNesting)
	}
}

// grow returns the height of an expression node over children of heights
// hs, and refuses it if, below the statements and operands it is parsed
// in, it would reach deeper than maxNesting. A leaf's height is 1.
func (p *parser) grow(hs ...int) int {
	h := 0
	for _, c := range hs {
		h = max(h, c)
	}
	if h++; p.depth+h > maxNesting {
		errorf("line %d: nesting deeper than %d", p.cur().Line, maxNesting)
	}
	return h
}

// atFunction reports whether a function definition starts here:
// IDENT = function (...).
func (p *parser) atFunction() bool {
	return p.at(TokIdent) && p.peek().Kind == TokOp && p.peek().Text == "=" &&
		p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == TokKeyword && p.toks[p.pos+2].Text == "function"
}

func (p *parser) parseFunction() *Function {
	nameTok := p.next() // ident
	p.next()            // '='
	fnTok := p.next()   // 'function'
	fn := &Function{Name: nameTok.Text, SrcLine: fnTok.Line}
	p.expect(TokLParen)
	for !p.at(TokRParen) {
		fn.Params = append(fn.Params, p.expect(TokIdent).Text)
		// Optional default value "param = expr" — recorded but ignored.
		if p.atOp("=") {
			p.next()
			p.parseExpr()
		}
		if p.at(TokComma) {
			p.next()
		}
	}
	p.next() // ')'
	if !p.atKw("return") {
		errorf("line %d: function %q missing return clause", fn.SrcLine, fn.Name)
	}
	p.next()
	p.expect(TokLParen)
	for !p.at(TokRParen) {
		fn.Returns = append(fn.Returns, p.expect(TokIdent).Text)
		if p.at(TokComma) {
			p.next()
		}
	}
	p.next() // ')'
	fn.Body = p.parseBlock()
	return fn
}

func (p *parser) parseBlock() []Stmt {
	p.expect(TokLBrace)
	var stmts []Stmt
	for {
		p.skipSemis()
		if p.at(TokRBrace) {
			p.next()
			return stmts
		}
		if p.at(TokEOF) {
			errorf("unexpected EOF in block")
		}
		stmts = append(stmts, p.parseStmt())
	}
}

func (p *parser) parseStmt() Stmt {
	p.nest()
	var st Stmt
	switch {
	case p.atKw("if"):
		st = p.parseIf()
	case p.atKw("while"):
		st = p.parseWhile()
	case p.atKw("for") || p.atKw("parfor"):
		st = p.parseFor()
	case p.at(TokIdent):
		st = p.parseAssignOrCall()
	default:
		errorf("line %d: unexpected %s at statement start", p.cur().Line, p.cur())
	}
	p.depth--
	return st
}

// parseParen parses "( expr )".
func (p *parser) parseParen() (Expr, int) {
	p.expect(TokLParen)
	e, h := p.parseExpr()
	p.expect(TokRParen)
	return e, h
}

func (p *parser) parseIf() Stmt {
	line := p.next().Line // 'if'
	cond, _ := p.parseParen()
	thenB := p.parseStmtOrBlock()
	var elseB []Stmt
	if p.atKw("else") {
		p.next()
		elseB = p.parseStmtOrBlock() // "else if" nests an If
	}
	return &If{Cond: cond, Then: thenB, Else: elseB, SrcLine: line}
}

func (p *parser) parseStmtOrBlock() []Stmt {
	if p.at(TokLBrace) {
		return p.parseBlock()
	}
	return []Stmt{p.parseStmt()}
}

func (p *parser) parseWhile() Stmt {
	line := p.next().Line
	cond, _ := p.parseParen()
	return &While{Cond: cond, Body: p.parseStmtOrBlock(), SrcLine: line}
}

func (p *parser) parseFor() Stmt {
	tok := p.next() // for/parfor
	p.expect(TokLParen)
	v := p.expect(TokIdent)
	if !p.atKw("in") {
		errorf("line %d: expected 'in' in for header", p.cur().Line)
	}
	p.next()
	from, _ := p.parseExpr()
	p.expectOp(":")
	to, _ := p.parseExpr()
	p.expect(TokRParen)
	return &For{Var: v.Text, From: from, To: to, Body: p.parseStmtOrBlock(),
		Parallel: tok.Text == "parfor", SrcLine: tok.Line}
}

func (p *parser) parseAssignOrCall() Stmt {
	start := p.pos
	id := p.next() // ident
	// Bare call statement: print(...), write(...), user functions.
	if p.at(TokLParen) {
		p.pos = start
		e, _ := p.parsePostfix()
		call, ok := e.(*Call)
		if !ok {
			errorf("line %d: expression statement must be a call", id.Line)
		}
		p.skipSemis()
		return &ExprStmt{Call: call, SrcLine: id.Line}
	}
	// Left indexing: X[r, c] = expr.
	var lidx *Index
	if p.at(TokLBracket) {
		lidx, _ = p.parseIndexSuffix(&Ident{Name: id.Text}, 1)
	}
	// Multi-assign from function call: [a, b] = f(...) is not in our DML
	// subset; the scripts use single returns.
	p.expectOp("=")
	expr, _ := p.parseExpr()
	p.skipSemis()
	return &Assign{Target: id.Text, LIndex: lidx, Expr: expr, SrcLine: id.Line}
}

// Expression parsing with R-like precedence.

// binaryLevels lists the spellings of the binary operators, level by level
// from the loosest to the tightest; past the last level come the unary
// operators. The nil level is prefix '!', which binds looser than a
// comparison ("!a == b" negates the comparison); in operand position
// ("1 + !x") parseUnary binds it as tightly as unary minus.
var binaryLevels = [...][]string{
	{"|", "||"},
	{"&", "&&"},
	nil,
	{"==", "!=", "<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/"},
	{"%*%"},
}

// addSubLevel is the level of '+' and '-', at which index bounds parse.
const addSubLevel = 4

// Each expression parser returns its node and the node's height. grow
// checks the height as each node is built, so a statement parser drops it.

func (p *parser) parseExpr() (Expr, int) { return p.parseBinary(0) }

// parseBinary parses a left-associative chain of the operators at level,
// whose operands are the tighter levels. "||" builds "|" and "&&" builds
// "&". Spellings compare as strings, with no map lookup: parsing is on the
// compile path of every submission.
func (p *parser) parseBinary(level int) (Expr, int) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	ops := binaryLevels[level]
	if ops == nil {
		if !p.atOp("!") {
			return p.parseBinary(level + 1)
		}
		p.next()
		p.nest()
		x, h := p.parseBinary(level)
		h = p.grow(h)
		p.depth--
		return &UnOp{Op: "!", X: x}, h
	}
	left, lh := p.parseBinary(level + 1)
	for {
		op := ""
		for _, o := range ops {
			if p.atOp(o) {
				op = o
			}
		}
		if op == "" {
			return left, lh
		}
		p.next()
		if op == "||" || op == "&&" {
			op = op[:1]
		}
		right, rh := p.parseBinary(level + 1)
		left, lh = &BinOp{Op: op, Left: left, Right: right}, p.grow(lh, rh)
	}
}

func (p *parser) parseUnary() (Expr, int) {
	p.nest()
	var e Expr
	var h int
	switch {
	// '!' in operand position (e.g. "1 + !x") binds tightly, as in R.
	case p.atOp("-") || p.atOp("!"):
		op := p.next().Text
		var x Expr
		x, h = p.parseUnary()
		e, h = &UnOp{Op: op, X: x}, p.grow(h)
	case p.atOp("+"):
		p.next()
		e, h = p.parseUnary()
	default:
		e, h = p.parsePower()
	}
	p.depth--
	return e, h
}

func (p *parser) parsePower() (Expr, int) {
	base, bh := p.parsePostfix()
	if !p.atOp("^") {
		return base, bh
	}
	p.next()
	exp, eh := p.parseUnary() // right associative
	return &BinOp{Op: "^", Left: base, Right: exp}, p.grow(bh, eh)
}

func (p *parser) parsePostfix() (Expr, int) {
	e, h := p.parsePrimary()
	for p.at(TokLBracket) {
		e, h = p.parseIndexSuffix(e, h)
	}
	return e, h
}

// parseIndexSuffix parses "[rows, cols]" after target, of height th.
func (p *parser) parseIndexSuffix(target Expr, th int) (*Index, int) {
	p.next() // '['
	row, rh := p.parseRange()
	idx := &Index{Target: target, Row: row}
	ch := 0
	if p.at(TokComma) {
		p.next()
		idx.Col, ch = p.parseRange()
	}
	p.expect(TokRBracket)
	return idx, p.grow(th, rh, ch)
}

// parseRange parses one dimension of an index; an empty one selects all.
func (p *parser) parseRange() (*IndexRange, int) {
	if p.at(TokComma) || p.at(TokRBracket) {
		return nil, 0
	}
	lo, lh := p.parseBinary(addSubLevel)
	r, hh := &IndexRange{Lo: lo}, 0
	if p.atOp(":") {
		p.next()
		r.Hi, hh = p.parseBinary(addSubLevel)
	}
	return r, p.grow(lh, hh)
}

func (p *parser) parsePrimary() (Expr, int) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			errorf("line %d: bad number %q", t.Line, t.Text)
		}
		return &Num{Value: v}, 1
	case TokString:
		p.next()
		return &Str{Value: t.Text}, 1
	case TokParam:
		p.next()
		return &Param{Name: t.Text}, 1
	case TokKeyword:
		if t.Text != "TRUE" && t.Text != "FALSE" {
			errorf("line %d: unexpected keyword %q in expression", t.Line, t.Text)
		}
		p.next()
		return &Bool{Value: t.Text == "TRUE"}, 1
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			return p.parseCall(t)
		}
		return &Ident{Name: t.Text}, 1
	case TokLParen:
		return p.parseParen()
	}
	errorf("line %d: unexpected %s in expression", t.Line, t)
	return nil, 0
}

func (p *parser) parseCall(name Token) (Expr, int) {
	p.next() // '('
	call := &Call{Name: name.Text}
	h := 0
	for !p.at(TokRParen) {
		// Named argument: ident '=' expr (but not ident '==').
		key := ""
		if p.at(TokIdent) && p.peek().Kind == TokOp && p.peek().Text == "=" {
			key = p.next().Text
			p.next() // '='
		}
		arg, ah := p.parseExpr()
		h = max(h, ah)
		if key == "" {
			call.Args = append(call.Args, arg)
		} else {
			if call.Named == nil {
				call.Named = make(map[string]Expr)
			}
			call.Named[key] = arg
		}
		if p.at(TokComma) {
			p.next()
		} else if !p.at(TokRParen) {
			errorf("line %d: expected ',' or ')' in call to %s", p.cur().Line, name.Text)
		}
	}
	p.next() // ')'
	return call, p.grow(h)
}
