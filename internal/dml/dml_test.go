package dml

import (
	"strings"
	"testing"

	"elasticml/internal/scripts"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`X = read($X); # comment
q = X %*% p
if (a <= 3.5e2 & !b) { }`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Text)
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"%*%", "<=", "&", "!", "3.5e2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing token %q in %q", want, joined)
		}
	}
	// $X param token.
	found := false
	for _, tok := range toks {
		if tok.Kind == TokParam && tok.Text == "X" {
			found = true
		}
	}
	if !found {
		t.Error("missing $X parameter token")
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `a = $;`, `a ~ b`, "x = \"multi\nline\""} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
	// %*% is the one %-operator: no kernel runs %% or %/%, so neither lexes.
	for src, want := range map[string]string{
		"y = X %% 2":    "dml: line 1: unexpected '%'",
		"\ny = X %/% 2": "dml: line 2: unexpected '%'",
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
}

func TestLexArrowAssign(t *testing.T) {
	toks, err := Lex("x <- 3")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokOp || toks[1].Text != "=" {
		t.Errorf("<- should lex as '=': %v", toks[1])
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	p := mustParse(t, "z = a + b * c;")
	as := p.Stmts[0].(*Assign)
	if as.Expr.String() != "(a + (b * c))" {
		t.Errorf("precedence: %s", as.Expr)
	}
	p = mustParse(t, "z = t(X) %*% y + 1;")
	as = p.Stmts[0].(*Assign)
	if as.Expr.String() != "((t(X) %*% y) + 1)" {
		t.Errorf("matmul precedence: %s", as.Expr)
	}
	p = mustParse(t, "z = -a^2;")
	as = p.Stmts[0].(*Assign)
	if as.Expr.String() != "-(a ^ 2)" {
		t.Errorf("power/unary: %s", as.Expr)
	}
	p = mustParse(t, "z = a < b & c >= d | !e;")
	as = p.Stmts[0].(*Assign)
	if as.Expr.String() != "(((a < b) & (c >= d)) | (!e))" {
		t.Errorf("logic precedence: %s", as.Expr)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
x = 1;
while (continue & iter < maxi) {
  q = X %*% p;
  if (g < eps) {
    continue = FALSE;
  } else {
    iter = iter + 1;
  }
}
for (i in 1:10) {
  s = s + i;
}
print("done " + s);
`
	p := mustParse(t, src)
	if len(p.Stmts) != 4 {
		t.Fatalf("got %d statements", len(p.Stmts))
	}
	w, ok := p.Stmts[1].(*While)
	if !ok {
		t.Fatalf("stmt 1 is %T", p.Stmts[1])
	}
	if len(w.Body) != 2 {
		t.Errorf("while body has %d stmts", len(w.Body))
	}
	ifst, ok := w.Body[1].(*If)
	if !ok || len(ifst.Then) != 1 || len(ifst.Else) != 1 {
		t.Errorf("if/else parse wrong: %#v", w.Body[1])
	}
	f, ok := p.Stmts[2].(*For)
	if !ok || f.Var != "i" {
		t.Errorf("for parse wrong")
	}
	if _, ok := p.Stmts[3].(*ExprStmt); !ok {
		t.Errorf("print should be ExprStmt")
	}
}

func TestParseIndexing(t *testing.T) {
	p := mustParse(t, "Q = P[, 1:k] * X;")
	as := p.Stmts[0].(*Assign)
	bin := as.Expr.(*BinOp)
	idx := bin.Left.(*Index)
	if idx.Row != nil {
		t.Error("row range should be nil (all)")
	}
	if idx.Col == nil || idx.Col.Hi == nil {
		t.Error("col range should be 1:k")
	}
	// Left indexing.
	p = mustParse(t, "B[1, 1] = 3;")
	as = p.Stmts[0].(*Assign)
	if as.LIndex == nil {
		t.Error("left index missing")
	}
	// Single-element right indexing.
	p = mustParse(t, "v = A[i, j];")
	as = p.Stmts[0].(*Assign)
	ix := as.Expr.(*Index)
	if ix.Row == nil || ix.Row.Hi != nil || ix.Col == nil {
		t.Errorf("single-element index wrong: %s", as.Expr)
	}
}

func TestParseCalls(t *testing.T) {
	p := mustParse(t, `M = matrix(0, rows=nrow(X), cols=1);`)
	as := p.Stmts[0].(*Assign)
	call := as.Expr.(*Call)
	if call.Name != "matrix" || len(call.Args) != 1 || len(call.Named) != 2 {
		t.Errorf("call parse wrong: %s", call)
	}
	if _, ok := call.Named["rows"].(*Call); !ok {
		t.Errorf("nested call in named arg: %s", call.Named["rows"])
	}
}

func TestParseFunction(t *testing.T) {
	src := `
f = function(A, b) return (x) {
  x = solve(A, b);
}
y = f(M, v);
`
	p := mustParse(t, src)
	fn, ok := p.Funcs["f"]
	if !ok {
		t.Fatal("function f not registered")
	}
	if len(fn.Params) != 2 || len(fn.Returns) != 1 || len(fn.Body) != 1 {
		t.Errorf("function shape wrong: %+v", fn)
	}
	if len(p.Stmts) != 1 {
		t.Errorf("got %d top-level stmts", len(p.Stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x = ;",
		"if (x { }",
		"while x { }",
		"for (i in 1) { }",
		"x = foo(a b);",
		"3 = x;",
		"x = (a",
		"f = function(x) { }", // missing return clause
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// FuzzParse: a tenant's source reaches Parse on the daemon, so no source
// may panic it, or the block builder over what it returns. A source is
// refused with a "dml: " error and no program, or parses to a program
// whose statements and functions are all there and whose line count is
// the source's.
func FuzzParse(f *testing.F) {
	for _, sc := range append(scripts.All(), scripts.Minibatch()...) {
		f.Add(sc.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			if prog != nil || !strings.HasPrefix(err.Error(), "dml: ") {
				t.Fatalf("Parse returned %v with error %v", prog != nil, err)
			}
			return
		}
		if prog == nil || prog.Lines != countLines(src) {
			t.Fatalf("Parse returned no error and program %+v", prog)
		}
		for _, st := range prog.Stmts {
			if st == nil {
				t.Fatal("a nil statement")
			}
		}
		for name, fn := range prog.Funcs {
			if fn == nil || fn.Name != name {
				t.Fatalf("function %q is %+v", name, fn)
			}
		}
		CountBlocks(BuildBlocks(prog.Stmts))
	})
}

func TestBuildBlocks(t *testing.T) {
	src := `
a = 1;
b = 2;
while (a < 10) {
  a = a + 1;
  if (a == 5) {
    b = b * 2;
  }
  c = a;
}
d = b;
`
	p := mustParse(t, src)
	blocks := BuildBlocks(p.Stmts)
	// Top: generic(a,b), while, generic(d).
	if len(blocks) != 3 {
		t.Fatalf("top-level blocks = %d, want 3", len(blocks))
	}
	if blocks[0].Kind != GenericBlock || len(blocks[0].Stmts) != 2 {
		t.Errorf("block 0: %v %d", blocks[0].Kind, len(blocks[0].Stmts))
	}
	if blocks[1].Kind != WhileBlockKind {
		t.Errorf("block 1 kind: %v", blocks[1].Kind)
	}
	// While body: generic(a=a+1), if, generic(c=a).
	if len(blocks[1].Body) != 3 {
		t.Errorf("while body blocks = %d, want 3", len(blocks[1].Body))
	}
	// Total: 3 top + 3 in while + 1 in if = 7.
	if n := CountBlocks(blocks); n != 7 {
		t.Errorf("CountBlocks = %d, want 7", n)
	}
	leaves := LastLevel(blocks)
	if len(leaves) != 5 {
		t.Errorf("LastLevel = %d generic blocks, want 5", len(leaves))
	}
}

func TestCountLines(t *testing.T) {
	p := mustParse(t, "a = 1;\nb = 2;\n")
	if p.Lines != 2 {
		t.Errorf("Lines = %d, want 2", p.Lines)
	}
	p = mustParse(t, "a = 1")
	if p.Lines != 1 {
		t.Errorf("Lines = %d, want 1", p.Lines)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
if (a == 1) { x = 1;
} else if (a == 2) { x = 2;
} else { x = 3;
}
`
	p := mustParse(t, src)
	top := p.Stmts[0].(*If)
	if len(top.Else) != 1 {
		t.Fatalf("else branch stmts = %d", len(top.Else))
	}
	if _, ok := top.Else[0].(*If); !ok {
		t.Errorf("else-if should nest an If, got %T", top.Else[0])
	}
}
