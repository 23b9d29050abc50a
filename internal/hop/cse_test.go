package hop

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// cseKeyFmt is the CSE key as fmt once built it, the oracle appendCSEKey
// must match byte for byte.
func cseKeyFmt(h *Hop) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%s|%s", h.Kind, h.Op, h.Name)
	if h.Kind == KindLit {
		fmt.Fprintf(&sb, "|%d|%v|%q", h.DataType, h.Value, h.StrValue)
	}
	for _, in := range h.Inputs {
		if in == nil {
			sb.WriteString("|_")
		} else {
			fmt.Fprintf(&sb, "|%d", in.ID)
		}
	}
	return sb.String()
}

func checkCSEKey(t *testing.T, h *Hop) {
	t.Helper()
	if got, want := string(appendCSEKey(nil, h)), cseKeyFmt(h); got != want {
		t.Errorf("%s: key %q, fmt builds %q", h, got, want)
	}
}

// TestCSEKeyMatchesFmt: the CSE key of every hop the paper grid's
// compilations and rebuilds build, and of literals at the edges of float
// and string formatting, equals the fmt form.
func TestCSEKeyMatchesFmt(t *testing.T) {
	hops := 0
	check := func(blocks []*Block) {
		WalkBlocks(blocks, func(b *Block) {
			WalkDAG(blockRoots(b), func(h *Hop) {
				checkCSEKey(t, h)
				hops++
			})
		})
	}
	forEachProblem(t, func(name string, c *Compiler, hp *Program) {
		check(hp.Blocks)
		meta := writtenMeta(hp)
		for i := range hp.Blocks {
			scope, err := c.RebuildScope(hp.Blocks[i:], meta.Clone())
			if err != nil {
				t.Fatalf("%s scope %d: %v", name, i, err)
			}
			check(scope.Blocks)
		}
	})
	if hops == 0 {
		t.Fatal("the paper grid built no hops")
	}
	in := &Hop{ID: 12345}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, -1e21, 1e20, 1e-7, 1e-4, 5e-324, math.MaxFloat64, 0.1, -2.5, 123456789} {
		for _, s := range []string{"", "plain", `say "hi"`, `back\slash`, "new\nline\ttab",
			"non-ASCII é ü 世界 🙂", "\x00\x7f\xff", "a|b|_"} {
			checkCSEKey(t, &Hop{Kind: KindLit, DataType: Scalar, Value: v, StrValue: s})
			checkCSEKey(t, &Hop{Kind: KindLit, DataType: String, Value: v, StrValue: s})
			checkCSEKey(t, &Hop{Kind: KindBinary, Op: s, Name: s, Value: v, Inputs: []*Hop{in, nil, in}})
		}
	}
}

// TestLiteralKeyHasDataType: the string "" and the scalar 0 are distinct
// literals. A block that builds "" first must still add a scalar 0 to an
// unknown scalar, in the compiled block, its re-size and its rebuild.
func TestLiteralKeyHasDataType(t *testing.T) {
	c, b := lastLeaf(t, `X = read($X); print(""); a = sum(X); b = a + 0; print(b);`)
	rb, err := c.Fork(c.FS).rebuild(b, SymTab{})
	if err != nil {
		t.Fatal(err)
	}
	rs, resized := c.Fork(c.FS).resize(b, SymTab{}, nil)
	if !resized {
		t.Fatal("the re-size fell back")
	}
	for _, blk := range []struct {
		name string
		b    *Block
	}{{"compiled", b}, {"rebuilt", rb}, {"re-sized", rs}} {
		found := false
		for _, h := range blk.b.Roots {
			if h.Kind == KindTWrite && h.Name == "b" {
				found = true
				if h.DataType != Scalar {
					t.Errorf("%s: twrite b has data type %v, want Scalar", blk.name, h.DataType)
				}
			}
		}
		if !found {
			t.Errorf("%s: no twrite b", blk.name)
		}
	}
}
