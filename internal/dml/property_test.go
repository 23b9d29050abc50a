package dml

import (
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

// genExpr builds a random expression of bounded depth.
func genExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &Num{Value: float64(rng.Intn(100))}
		case 1:
			return &Ident{Name: string(rune('a' + rng.Intn(26)))}
		default:
			return &Bool{Value: rng.Intn(2) == 0}
		}
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"+", "-", "*", "/", "<", ">", "==", "&", "|", "%*%"}
		return &BinOp{Op: ops[rng.Intn(len(ops))],
			Left: genExpr(rng, depth-1), Right: genExpr(rng, depth-1)}
	case 1:
		op := "-"
		if rng.Intn(2) == 0 {
			op = "!"
		}
		return &UnOp{Op: op, X: genExpr(rng, depth-1)}
	case 2:
		return &Call{Name: "sum", Args: []Expr{genExpr(rng, depth-1)}}
	default:
		return genExpr(rng, depth-1)
	}
}

// TestExprStringReparseFixpoint: printing an expression and re-parsing it
// yields the same printed form (String is a normal form).
func TestExprStringReparseFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		src := "x = " + e.String() + ";"
		prog, err := Parse(src)
		if err != nil {
			t.Logf("unparseable print of %T: %s (%v)", e, src, err)
			return false
		}
		as, ok := prog.Stmts[0].(*Assign)
		if !ok {
			return false
		}
		return as.Expr.String() == e.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeeplyNestedParse: pathological nesting parses without issue.
func TestDeeplyNestedParse(t *testing.T) {
	depth := 200
	src := "x = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + ";"
	if _, err := Parse(src); err != nil {
		t.Fatalf("deep parens: %v", err)
	}
	// Long binary chain.
	var sb strings.Builder
	sb.WriteString("y = 1")
	for i := 0; i < 2000; i++ {
		sb.WriteString(" + 1")
	}
	sb.WriteString(";")
	if _, err := Parse(sb.String()); err != nil {
		t.Fatalf("long chain: %v", err)
	}
	// Deeply nested control flow.
	sb.Reset()
	for i := 0; i < 100; i++ {
		sb.WriteString("if (a > 0) {\n")
	}
	sb.WriteString("b = 1;\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("}\n")
	}
	prog, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("deep ifs: %v", err)
	}
	if n := CountBlocks(BuildBlocks(prog.Stmts)); n != 101 {
		t.Errorf("deep-if blocks = %d, want 101", n)
	}
}

// TestNestingBound: a frame's worth of nesting is refused with an error.
// Without the bound, the sources Parse recurses over overflow a 64 MiB
// stack, and the chains it parses in a loop reach the later stages as a
// tree of half a million levels, also when each chain is short and only
// their parenthesised sum is deep.
func TestNestingBound(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const size = 1 << 20
	fill := func(head, unit, tail string) string {
		return head + strings.Repeat(unit, (size-len(head)-len(tail))/len(unit)) + tail
	}
	nested := func(leaf, unit string) string { // 100 parentheses, each closing a run of unit
		n := size / 100 / len(unit)
		return "x = " + strings.Repeat("(", 100) + leaf + strings.Repeat(strings.Repeat(unit, n)+")", 100)
	}
	for _, c := range []struct{ name, src string }{
		{"parentheses", fill("x = ", "(", "1")},
		{"chain", fill("x = x", "+x", "")},
		{"unary minus", fill("x = ", "-", "1")},
		{"calls", fill("x = ", "f(", "1")},
		{"index bounds", fill("x = ", "X[", "1")},
		{"indexes", fill("x = X", "[1]", "")},
		{"ifs", fill("", "if (a) ", "b = 1")},
		{"parenthesised chains", nested("a", "+a")},
		{"parenthesised indexes", nested("X", "[1]")},
	} {
		_, err := Parse(c.src)
		if err == nil || !strings.HasSuffix(err.Error(), "nesting deeper than 10000") {
			t.Errorf("%s: error %v, want the nesting bound's", c.name, err)
		}
	}
}

// TestBlockPartitionProperty: statement blocks partition statements — the
// number of statements across generic blocks equals the input count for
// straight-line programs.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%40) + 1
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString("a = 1;\n")
		}
		prog, err := Parse(sb.String())
		if err != nil {
			return false
		}
		blocks := BuildBlocks(prog.Stmts)
		total := 0
		Walk(blocks, func(b *StatementBlock) { total += len(b.Stmts) })
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
