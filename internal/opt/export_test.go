package opt

import (
	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/lop"
)

// OnCellAnswer hands fn every ask a cost cell answers, until restore: the
// estimator that recorded the cell, the block plan (b) or the program plan
// (p) asked for, the resources, the cell and the answer. Pool workers call
// fn concurrently; it must not be set while a search runs.
func OnCellAnswer(fn func(est *cost.Estimator, b *lop.Block, p *lop.Plan, res conf.Resources, c *cost.Cell, v float64)) (restore func()) {
	onCellAnswer = fn
	return func() { onCellAnswer = nil }
}
