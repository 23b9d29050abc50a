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
	for _, c := range []struct{ src, want string }{
		{"a + b * c", "(a + (b * c))"},
		{"t(X) %*% y + 1", "((t(X) %*% y) + 1)"},
		{"-a^2", "-(a ^ 2)"},
		{"a < b & c >= d | !e", "(((a < b) & (c >= d)) | (!e))"},
		// One case per pair of adjacent levels, loosest first.
		{"a || b && c", "(a | (b & c))"},
		{"a & b | c", "((a & b) | c)"},
		{"a && !b", "(a & (!b))"},
		{"!a == b", "(!(a == b))"},
		{"!!a", "(!(!a))"},
		{"a == b + c", "(a == (b + c))"},
		{"a - b < c", "((a - b) < c)"},
		{"a - b / c", "(a - (b / c))"},
		{"a * b %*% c", "(a * (b %*% c))"},
		{"a %*% b * c", "((a %*% b) * c)"},
		{"a %*% -b", "(a %*% -b)"},
		{"-x ^ 2", "-(x ^ 2)"},
		{"1 + !x", "(1 + (!x))"},
		{"a ^ -b ^ c", "(a ^ -(b ^ c))"},
		{"X[i+1:n-1, ]", "X[(i + 1):(n - 1),]"},
	} {
		as := mustParse(t, "z = "+c.src+";").Stmts[0].(*Assign)
		if got := as.Expr.String(); got != c.want {
			t.Errorf("%s: parsed as %s, want %s", c.src, got, c.want)
		}
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

// TestParseErrors pins the message of each error site of the parser and
// the inliner; a source that parses is inlined.
func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"x = ;", `dml: line 1: unexpected ';' ";" (line 1) in expression`},
		{"if (x { }", `dml: line 1: expected ')', got '{' "{" (line 1)`},
		{"while x { }", `dml: line 1: expected '(', got identifier "x" (line 1)`},
		{"for (i in 1) { }", `dml: line 1: expected ":", got ')' ")" (line 1)`},
		{"for (i 1:2) {}", `dml: line 1: expected 'in' in for header`},
		{"x = foo(a b);", `dml: line 1: expected ',' or ')' in call to foo`},
		{"3 = x;", `dml: line 1: unexpected number "3" (line 1) at statement start`},
		{"x = (a", `dml: line 1: expected ')', got EOF "" (line 1)`},
		{"f = function(x) { }", `dml: line 1: function "f" missing return clause`},
		{"x = 1e+;", `dml: line 1: bad number "1e+"`},
		{"x = if;", `dml: line 1: unexpected keyword "if" in expression`},
		{"f(1)[2];", `dml: line 1: expression statement must be a call`},
		{"while (a) {", `dml: unexpected EOF in block`},
		{"f = function() return () {}\nf = function() return () {}", `dml: line 2: duplicate function "f"`},
		{"x = " + strings.Repeat("(", maxNesting) + "1", `dml: line 1: nesting deeper than 10000`},
		{"x = x" + strings.Repeat("+x", maxNesting), `dml: line 1: nesting deeper than 10000`},
		{"f = function(a) return (a) {" + strings.Repeat("if (a) ", 6000) + "a = 1; }\n" +
			strings.Repeat("if (a) ", 6000) + "x = f(1);", `dml: line 2: nesting deeper than 10000 once f is inlined`},
		{strings.Repeat("while (a) {", 7) + strings.Repeat("}", 7), `dml: line 1: loops nest deeper than 6`},
		{"f = function(a) return (a) { while (a) { for (i in 1:2) { a = 1; } } }\n" +
			strings.Repeat("while (a) { if (a) {", 5) + "x = f(1);" + strings.Repeat("} }", 5),
			`dml: line 2: loops nest deeper than 6 once f is inlined`},
		{"f = function(a) return (a) { while (a) { for (i in 1:2) { a = 1; } } }\n" +
			"g = function(a) return (a) { for (j in 1:2) {\na = f(a); } }\n" + strings.Repeat("while (a) {", 4) + "x = g(1);" + strings.Repeat("}", 4),
			`dml: line 4: loops nest deeper than 6 once g is inlined`},
		{"f = function(a, b) return (c) { c = a + b; }\nx = f(1);", `dml: line 2: f expects 2 arguments, got 1`},
		{"f = function(a) return () { b = a; }\nx = f(1);", `dml: line 2: f returns 0 values, 1 requested`},
		{"f = function(a) return (c) { c = f(a); }\nx = f(1);", `dml: function inlining exceeded depth 16 (recursion?)`},
	} {
		prog, err := Parse(c.src)
		if err == nil {
			_, err = InlineFunctions(prog)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%.40q: error %v, want %s", c.src, err, c.want)
		}
	}
}

// TestCatchReraises: catch turns only a dmlError into an error; any other
// panic, a bug, goes on up.
func TestCatchReraises(t *testing.T) {
	defer func() {
		if r := recover(); r != "bug" {
			t.Errorf("recovered %v, want the re-raised panic", r)
		}
	}()
	var err error
	func() {
		defer catch(&err)
		panic("bug")
	}()
	t.Errorf("catch swallowed a panic, err %v", err)
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
	leaves := 0
	Walk(blocks, func(b *StatementBlock) {
		if b.Kind == GenericBlock {
			leaves++
		}
	})
	if leaves != 5 {
		t.Errorf("%d generic blocks, want 5", leaves)
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
