package hop

import (
	"strings"
	"testing"

	"elasticml/internal/dml"
)

// TestPruneInsideLoop: a dead matrix store inside a loop body is pruned
// after the fixpoint passes have read the body's blocks. The reads it fed
// die with it, so W's store earlier in the body is pruned too, and its
// block, whose only unknown-size hop fed the dead store, no longer needs
// recompilation.
func TestPruneInsideLoop(t *testing.T) {
	src := `
X = read($X);
i = 1;
while (i < 3) {
  W = t(X);
  if (i > 1) {
    print("again");
  }
  Z = X[1:i, ] %*% W;
  i = i + 1;
}
print(sum(X));
`
	hp := compileSrc(t, testFS(100, 10), src, map[string]interface{}{"X": "/data/X"})
	stores := map[string]bool{}
	var body *Block
	WalkBlocks(hp.Blocks, func(b *Block) {
		for _, r := range b.Roots {
			if r.Kind == KindTWrite {
				stores[r.Name] = true
			}
		}
		if b.Kind == dml.WhileBlockKind {
			body = b.Body[len(b.Body)-1]
		}
	})
	if stores["Z"] || stores["W"] || !stores["X"] || !stores["i"] {
		t.Errorf("stores left %v, want X and i only", stores)
	}
	if body == nil || body.Recompile {
		t.Error("the loop body's last block still needs recompilation")
	}
}

// TestLiveIn pins the statement-level liveness a scope's consult key is
// built from: a plain assignment kills, a left-indexed one reads its
// target, either branch of an if may run, a loop may run zero or more
// times, and a for header kills its variable after reading its bounds.
func TestLiveIn(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"x = 1; y = x + z;", "z"},
		{"W[1, 1] = v;", "W v"},
		{"W = matrix(0, rows=2, cols=2); W[i, 1] = v;", "i v"},
		{"if (p) { a = b; } else { c = 1; }\nprint(a);", "a b p"},
		{"while (i < n) { s = s + i; i = i + 1; }", "i n s"},
		{"while (go) { t = 1; go = t > u; }", "go u"},
		{"for (k in a:k) { x = k + u; }\nprint(k);", "a k u"},
		{"y = read($X); print(sum(y));", ""},
	} {
		prog, err := dml.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(LiveIn(dml.BuildBlocks(prog.Stmts)), " "); got != c.want {
			t.Errorf("%q: live-in %q, want %q", c.src, got, c.want)
		}
	}
}
