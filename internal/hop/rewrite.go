package hop

import "elasticml/internal/dml"

// finish applies the transpose-mm rewrite to a generic block whose
// topology is otherwise final and linearizes it: a matrix multiplication
// whose left operand is a transpose consumed only by this multiplication
// is rewired to read the untransposed input with TransA set, avoiding
// materialization of the (potentially huge) transpose (paper Table 4:
// "Avoid large transpose by transpose-mm rewrite"). It must run after
// dead-write pruning so that fan-out counts are accurate. The linearized
// Users tell whether any transpose qualifies, so most blocks are walked
// once.
func (b *Block) finish() {
	b.linearize()
	if fusable(b) {
		fuseDAG(b.Roots, b.hint)
		b.linearize()
	}
}

// blockRoots returns the roots of b's own DAGs: a generic block's roots,
// or a control block's header (entries may be nil).
func blockRoots(b *Block) []*Hop {
	if b.Kind == dml.GenericBlock {
		return b.Roots
	}
	return []*Hop{b.Pred, b.From, b.To}
}

// fuseDAG rewires eligible matmuls reachable from roots. A transpose is
// fused away when every one of its uses is the left operand of a matrix
// multiplication — then no consumer needs the materialized transpose and
// the reorg node dies. Any other use (including the right matmul slot)
// blocks fusion. hint is the expected hop count.
func fuseDAG(roots []*Hop, hint int) {
	// uses counts each hop's input-slot uses and left those as a left
	// matmul operand, by walk position (Pos; linearize renumbers the final
	// DAG).
	uses, left := make([]int32, 0, hint), make([]int32, 0, hint)
	WalkDAG(roots, func(h *Hop) {
		h.Pos = int32(len(uses))
		uses, left = append(uses, 0), append(left, 0)
		for i, in := range h.Inputs {
			if in != nil {
				uses[in.Pos]++
				if i == 0 && h.Kind == KindMatMul && !h.TransA {
					left[in.Pos]++
				}
			}
		}
	})
	WalkDAG(roots, func(h *Hop) {
		if h.Kind != KindMatMul || h.TransA {
			return
		}
		if t := h.Inputs[0]; t.Kind == KindReorg && t.Op == "t" && uses[t.Pos] == left[t.Pos] {
			h.TransA = true
			h.Inputs[0] = t.Inputs[0]
			estimateMem(h)
		}
	})
}
