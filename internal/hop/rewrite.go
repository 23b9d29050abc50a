package hop

import "elasticml/internal/dml"

// fuseTransposeMM applies the transpose-mm rewrite to every block DAG:
// a matrix multiplication whose left operand is a transpose consumed only
// by this multiplication is rewired to read the untransposed input with
// TransA set, avoiding materialization of the (potentially huge) transpose
// (paper Table 4: "Avoid large transpose by transpose-mm rewrite").
// It must run after dead-write pruning so that fan-out counts are accurate.
func fuseTransposeMM(blocks []*Block) {
	WalkBlocks(blocks, func(b *Block) { fuseDAG(blockRoots(b)) })
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
// blocks fusion.
func fuseDAG(roots []*Hop) {
	// uses counts each hop's input-slot uses and left those as a left
	// matmul operand, by walk position (Pos; linearize renumbers the final
	// DAG).
	var uses, left []int32
	WalkDAG(roots, func(h *Hop) {
		h.Pos = len(uses)
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
