package rt

import (
	"elasticml/internal/hop"
	"elasticml/internal/lop"
)

// LastPlan returns the plan the last execution of the compiled block cb
// ran, if the interpreter recompiled or selected cb again; the plan's
// HopBlock is the block it was selected for.
func (ip *Interp) LastPlan(cb *hop.Block) (*lop.Block, bool) {
	last, ok := ip.last[cb]
	return last.plan, ok && last.plan != nil
}
