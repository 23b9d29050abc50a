package hop

import (
	"fmt"
	"slices"
	"testing"

	"elasticml/internal/dml"
)

// TestLinearizedBlocks: on the paper grid, every generic block the compiler
// builds — by Compile, by RebuildScope of each top-level suffix (the scopes
// the §4 adapter rebuilds) and by RecompileGeneric — carries the Order, Pos
// and Users a fresh walk of its roots computes, and every control block the
// Header and Pos a fresh walk of its Pred, From and To computes.
func TestLinearizedBlocks(t *testing.T) {
	forEachProblem(t, func(name string, c *Compiler, hp *Program) {
		checkLinearized(t, name, hp.Blocks)
		meta := writtenMeta(hp)
		for i := range hp.Blocks {
			scope, err := c.RebuildScope(hp.Blocks[i:], meta.Clone())
			if err != nil {
				t.Fatalf("%s scope %d: %v", name, i, err)
			}
			checkLinearized(t, fmt.Sprintf("%s scope %d", name, i), scope.Blocks)
		}
		for _, b := range hp.LeafBlocks() {
			nb, err := c.RecompileGeneric(b, meta.Clone(), nil)
			if err != nil {
				t.Fatalf("%s recompile block %d: %v", name, b.Index, err)
			}
			checkLinearized(t, fmt.Sprintf("%s recompiled block %d", name, b.Index), []*Block{nb})
		}
	})
}

// writtenMeta is the metadata of every variable p's generic blocks write,
// enough to rebuild any of its blocks.
func writtenMeta(p *Program) SymTab {
	meta := SymTab{}
	for _, b := range p.LeafBlocks() {
		for _, r := range b.Roots {
			if r.Kind == KindTWrite {
				meta[r.Name] = metaOf(r)
			}
		}
	}
	return meta
}

// checkLinearized compares each block's tables with a fresh walk.
func checkLinearized(t *testing.T, name string, blocks []*Block) {
	t.Helper()
	WalkBlocks(blocks, func(b *Block) {
		if b.Kind != dml.GenericBlock {
			var header []*Hop
			WalkDAG([]*Hop{b.Pred, b.From, b.To}, func(h *Hop) { header = append(header, h) })
			if !slices.Equal(b.Header, header) {
				t.Errorf("%s lines %d-%d: Header has %d hops, a walk finds %d",
					name, b.FirstLine, b.LastLine, len(b.Header), len(header))
			}
			for i, h := range b.Header {
				if int(h.Pos) != i {
					t.Errorf("%s lines %d-%d: header %s at %d has Pos %d", name, b.FirstLine, b.LastLine, h, i, h.Pos)
				}
			}
			return
		}
		var order []*Hop
		users := map[*Hop][]*Hop{}
		WalkDAG(b.Roots, func(h *Hop) {
			order = append(order, h)
			for _, in := range h.Inputs {
				if in != nil {
					users[in] = append(users[in], h)
				}
			}
		})
		if !slices.Equal(b.Order, order) || len(b.Users) != len(order) {
			t.Errorf("%s lines %d-%d: Order has %d hops and Users %d, a walk finds %d",
				name, b.FirstLine, b.LastLine, len(b.Order), len(b.Users), len(order))
			return
		}
		for i, h := range b.Order {
			if int(h.Pos) != i {
				t.Errorf("%s lines %d-%d: %s at %d has Pos %d", name, b.FirstLine, b.LastLine, h, i, h.Pos)
			}
			if !slices.Equal(b.Users[i], users[h]) {
				t.Errorf("%s lines %d-%d: %s has users %v, want %v", name, b.FirstLine, b.LastLine, h, b.Users[i], users[h])
			}
		}
	})
}
