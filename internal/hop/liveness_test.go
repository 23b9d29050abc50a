package hop

import (
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
