package dml

import (
	"strings"
	"testing"
)

func TestInlineSimpleFunction(t *testing.T) {
	src := `
scale = function(M, f) return (R) {
  R = M * f;
}
A = read($A);
B = scale(A, 2);
write(B, "/out/B");
`
	prog := mustParse(t, src)
	stmts, err := InlineFunctions(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Expanded: A=read, param binds (2), body (1), result assign (1), write.
	if len(stmts) != 6 {
		t.Fatalf("inlined to %d statements, want 6", len(stmts))
	}
	// All function-local names are renamed.
	for _, s := range stmts[1:4] {
		as, ok := s.(*Assign)
		if !ok {
			t.Fatalf("expected assigns, got %T", s)
		}
		if !strings.HasPrefix(as.Target, "_scale") {
			t.Errorf("unrenamed target %q", as.Target)
		}
	}
}

func TestInlineNestedCallsAndControlFlow(t *testing.T) {
	src := `
inner = function(x) return (y) {
  y = x + 1;
}
outer = function(x) return (y) {
  y = 0;
  for (i in 1:3) {
    t = inner(x);
    y = y + t;
  }
}
r = outer(5);
print(r);
`
	prog := mustParse(t, src)
	stmts, err := InlineFunctions(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The for loop survives inlining with a renamed loop variable.
	var forStmt *For
	for _, s := range stmts {
		if f, ok := s.(*For); ok {
			forStmt = f
		}
	}
	if forStmt == nil {
		t.Fatal("for loop lost during inlining")
	}
	if !strings.HasPrefix(forStmt.Var, "_outer") {
		t.Errorf("loop var not renamed: %q", forStmt.Var)
	}
	// The nested inner() call was expanded inside the loop body.
	foundInner := false
	for _, s := range forStmt.Body {
		if as, ok := s.(*Assign); ok && strings.Contains(as.Target, "_inner") {
			foundInner = true
		}
	}
	if !foundInner {
		t.Error("nested call not inlined inside loop body")
	}
}

func TestInlineErrors(t *testing.T) {
	// Wrong arity.
	src := `
f = function(a, b) return (c) { c = a + b; }
x = f(1);
`
	prog := mustParse(t, src)
	if _, err := InlineFunctions(prog); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Recursion exceeds depth.
	src = `
f = function(a) return (c) { c = f(a); }
x = f(1);
`
	prog = mustParse(t, src)
	if _, err := InlineFunctions(prog); err == nil {
		t.Error("recursion should fail inlining")
	}
}

func TestInlineInsideControlStatements(t *testing.T) {
	src := `
g = function(a) return (c) { c = a * a; }
x = 0;
if (x < 1) {
  x = g(3);
} else {
  while (x > 0) {
    x = g(x);
  }
}
print(x);
`
	prog := mustParse(t, src)
	stmts, err := InlineFunctions(prog)
	if err != nil {
		t.Fatal(err)
	}
	ifStmt, ok := stmts[1].(*If)
	if !ok {
		t.Fatalf("expected If, got %T", stmts[1])
	}
	if len(ifStmt.Then) < 3 {
		t.Errorf("then-branch call not expanded: %d stmts", len(ifStmt.Then))
	}
	w, ok := ifStmt.Else[0].(*While)
	if !ok {
		t.Fatalf("expected While in else, got %T", ifStmt.Else[0])
	}
	if len(w.Body) < 3 {
		t.Errorf("while-body call not expanded: %d stmts", len(w.Body))
	}
}

func TestExprContainsCall(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Y = table(a, b);", true},
		{"Y = t(table(a, b));", true},
		{"Y = a + table(seq(1, n), y);", true},
		{"Y = M[table(a, b), 1];", true},
		{"Y = matrix(0, rows=nrow(table(a, b)), cols=1);", true},
		{"Y = t(a) %*% b;", false},
		{"Y = M[1, 2];", false},
	}
	for _, c := range cases {
		prog := mustParse(t, c.src)
		as := prog.Stmts[0].(*Assign)
		if got := exprContainsCall(as.Expr, "table"); got != c.want {
			t.Errorf("exprContainsCall(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	prog := mustParse(t, `x = a[1:2, ] + -b * (!c);
s = "lit";
p = $param;
`)
	got := prog.Stmts[0].(*Assign).Expr.String()
	if got != "(a[1:2,] + (-b * (!c)))" {
		t.Errorf("expr string = %q", got)
	}
	if s := prog.Stmts[1].(*Assign).Expr.String(); s != `"lit"` {
		t.Errorf("str literal = %q", s)
	}
	if s := prog.Stmts[2].(*Assign).Expr.String(); s != "$param" {
		t.Errorf("param = %q", s)
	}
	for _, k := range []BlockKind{GenericBlock, IfBlockKind, WhileBlockKind, ForBlockKind} {
		if k.String() == "?" {
			t.Errorf("BlockKind %d unnamed", k)
		}
	}
	for _, k := range []TokenKind{TokEOF, TokNumber, TokString, TokIdent, TokParam,
		TokKeyword, TokOp, TokLParen, TokRParen, TokLBrace, TokRBrace,
		TokLBracket, TokRBracket, TokComma, TokSemicolon} {
		if k.String() == "?" {
			t.Errorf("TokenKind %d unnamed", k)
		}
	}
}

// TestInlineRenamesIndexBounds: an inlined body's index bounds read the
// renamed parameters, not the caller's variables of the same name.
func TestInlineRenamesIndexBounds(t *testing.T) {
	src := `
head = function(X, k) return (Y) {
  Y = X[1:k, ];
}
k = 7;
A = read($A);
B = head(A, 3);
write(B, "/out/B");
`
	stmts, err := InlineFunctions(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	// The parameter k binds to the call's argument 3 under its renamed name.
	var idx *Index
	var k string
	for _, s := range stmts {
		as, ok := s.(*Assign)
		if !ok {
			continue
		}
		switch e := as.Expr.(type) {
		case *Index:
			idx = e
		case *Num:
			if e.Value == 3 {
				k = as.Target
			}
		}
	}
	if idx == nil || k == "" || k == "k" {
		t.Fatalf("inlined to %v: want the parameter k bound under a new name and the body's indexing", stmts)
	}
	if x, ok := idx.Target.(*Ident); !ok || !strings.HasPrefix(x.Name, "_head") {
		t.Errorf("indexed matrix %v, want the renamed parameter X", idx.Target)
	}
	if idx.Row == nil || idx.Col != nil {
		t.Fatalf("index ranges [%v, %v], want a row range and all columns", idx.Row, idx.Col)
	}
	if lo, ok := idx.Row.Lo.(*Num); !ok || lo.Value != 1 {
		t.Errorf("row lower bound %v, want 1", idx.Row.Lo)
	}
	if hi, ok := idx.Row.Hi.(*Ident); !ok || hi.Name != k {
		t.Errorf("row upper bound %v, want the renamed parameter %s", idx.Row.Hi, k)
	}
}

// TestLoopNestingAtTheBound: loops may nest MaxLoopNesting deep once
// functions are inlined, whether a source nests them itself or a call
// inside loops splices a body that holds more; an if adds no loop level.
// TestParseErrors pins the refusals one level deeper.
func TestLoopNestingAtTheBound(t *testing.T) {
	nest := func(k int, inner string) string { // a = 1, then k loops around inner
		head, tail := "", ""
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				head, tail = head+"while (a > 2) {\n", tail+"}\n"
			} else {
				head, tail = head+"for (i in 1:3) { if (a > 1) {\n", tail+"} }\n"
			}
		}
		return "a = 1;\n" + head + inner + "\n" + tail
	}
	const f = "f = function(a) return (b) { b = a; while (b > 2) { for (j in 1:2) { b = b - 1; } } }\n"
	for _, src := range []string{nest(MaxLoopNesting, "a = a + 1;"), f + nest(MaxLoopNesting-2, "a = f(a);")} {
		prog, err := Parse(src)
		if err == nil {
			_, err = InlineFunctions(prog)
		}
		if err != nil {
			t.Errorf("%v, in\n%s", err, src)
		}
	}
}
