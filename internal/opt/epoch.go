// Epoch-window view of iterative programs. Mini-batch scripts are
// structured as an outer for-loop over epochs containing an inner
// for-loop over batch slices; both trip counts constant-fold from $
// parameters, so the hop program carries them as KnownIters. The
// workload layer treats those loop boundaries as first-class elasticity
// points: grows are deferred to the next epoch boundary, shrinks snap
// mid-epoch to the last completed batch. DetectEpochs recovers that
// structure from a compiled program; a §5 re-optimization at any such
// boundary is an ordinary search under the cluster of the moment, which
// the plan cache answers when that cluster repeats.

package opt

import (
	"elasticml/internal/dml"
	"elasticml/internal/hop"
)

// EpochPlan describes the epoch structure of an iterative program: the
// outer loop's trip count and the inner batch loop's trip count. A
// program without a statically-known epoch loop has no plan.
type EpochPlan struct {
	// Epochs is the outer for-loop trip count.
	Epochs int
	// Batches is the inner batch-loop trip count (1 if the epoch body has
	// no statically-known inner loop).
	Batches int
}

// Boundaries returns the number of batch-granular progress boundaries in
// the program, i.e. the checkpoint resolution an elastic resize can snap
// to: Epochs * Batches.
func (p EpochPlan) Boundaries() int {
	return p.Epochs * p.Batches
}

// DetectEpochs recovers the epoch structure from a compiled program. It
// finds the first top-level (non-parallel) for-loop with a
// statically-known trip count and treats it as the epoch loop; the first
// statically-known for-loop nested anywhere in its body is the batch
// loop. Returns ok=false for programs without such a loop — one-shot
// batch scripts, while-loop solvers, and loops whose bounds did not
// constant-fold.
func DetectEpochs(p *hop.Program) (EpochPlan, bool) {
	if p == nil {
		return EpochPlan{}, false
	}
	outer := firstKnownFor(p.Blocks)
	if outer == nil {
		return EpochPlan{}, false
	}
	plan := EpochPlan{Epochs: int(outer.KnownIters), Batches: 1}
	if inner := firstKnownFor(outer.Body); inner != nil {
		plan.Batches = int(inner.KnownIters)
	}
	return plan, true
}

// firstKnownFor returns the first sequential for-block with a positive
// static trip count among the given blocks (descending into if-branches,
// since epoch loops may sit under a statically-unresolved guard), or nil.
func firstKnownFor(blocks []*hop.Block) *hop.Block {
	for _, b := range blocks {
		switch b.Kind {
		case dml.ForBlockKind:
			if !b.Parallel && b.KnownIters > 0 && b.KnownIters != hop.Unknown {
				return b
			}
		case dml.IfBlockKind:
			if f := firstKnownFor(b.Then); f != nil {
				return f
			}
			if f := firstKnownFor(b.Else); f != nil {
				return f
			}
		}
	}
	return nil
}
