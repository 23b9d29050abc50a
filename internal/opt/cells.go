package opt

import (
	"slices"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/lop"
)

// evaluator is what one goroutine of a search selects and costs with: an
// estimator, a selection table, and the cost cells (cost.Cell) of the
// costings it walked. A plan's cost reads the resources only through step
// functions, so most asks of Algorithm 1 repeat the cost of an earlier
// costing of the same table-owned plan; an ask inside a recorded cell is
// answered with its cost and still counted, so that Stats.Costings counts
// asks. The master and each pool worker own one; all of it dies with the
// search.
type evaluator struct {
	est *cost.Estimator
	tab *lop.Table

	// mrs is the search's MR grid; at holds, by leaf index and MR grid
	// point, 1 + the index in cells of the cell last recorded or used
	// there (0 for none): the probe that serves the CP walk, whose
	// blocks meet the plan again at the same MR heap.
	mrs     []conf.Bytes
	numLeaf int
	at      []int32
	cells   []blockCell
	// last is the index of the cell of the last block ask, or -1: the
	// probe that serves the MR walk, which asks for one plan at
	// ascending MR heaps.
	last int32
	// free is the unused tail of the storage block cells' jobs share.
	free []cost.CellJob

	// prog is the last whole-program costing, keyed by its leaf plans.
	prog progCell
}

// blockCell is one block costing: the table-owned plan, its cell and cost.
type blockCell struct {
	b    *lop.Block
	cell cost.Cell
	cost float64
}

// progCell is one whole-program costing: the plan's leaf plans (its
// Blocks), which determine it within a search, its cell and cost.
type progCell struct {
	blocks []*lop.Block
	cell   cost.Cell
	cost   float64
	ok     bool
}

// jobChunk is how many cell jobs one allocation of shared storage holds.
const jobChunk = 64

func (o *Optimizer) newEvaluator(srm []conf.Bytes, numLeaf int) *evaluator {
	return &evaluator{est: o.newEstimator(), tab: lop.NewTable(o.CC), mrs: srm, numLeaf: numLeaf,
		at: make([]int32, numLeaf*len(srm)), last: -1}
}

// slot returns the index in at of the block's leaf at the MR heap, or -1
// off the grid.
func (ev *evaluator) slot(b *lop.Block, ri conf.Bytes) int {
	k, ok := slices.BinarySearch(ev.mrs, ri)
	i := b.HopBlock.Index
	if !ok || i < 0 || i >= ev.numLeaf {
		return -1
	}
	return i*len(ev.mrs) + k
}

// blockCost is est.BlockCost(b, res), answered from a cell of b when res
// lies in one of the two probed.
func (ev *evaluator) blockCost(b *lop.Block, res conf.Resources) float64 {
	slot := ev.slot(b, res.MRFor(0))
	if !walkEveryCosting {
		i := ev.last
		if i < 0 || ev.cells[i].b != b || !ev.est.Holds(&ev.cells[i].cell, res) {
			i = -1
			if slot >= 0 {
				if j := ev.at[slot] - 1; j >= 0 && j != ev.last && ev.cells[j].b == b && ev.est.Holds(&ev.cells[j].cell, res) {
					i = j
				}
			}
		}
		if i >= 0 {
			ev.last = i
			if slot >= 0 {
				ev.at[slot] = i + 1
			}
			c := &ev.cells[i]
			ev.answered(b, nil, res, &c.cell, c.cost)
			return c.cost
		}
	}
	if cap(ev.free) < jobChunk/8 {
		ev.free = make([]cost.CellJob, 0, jobChunk)
	}
	ev.last = int32(len(ev.cells))
	ev.cells = append(ev.cells, blockCell{b: b, cell: cost.Cell{Jobs: ev.free}})
	c := &ev.cells[ev.last]
	c.cost = ev.est.BlockCostCell(b, res, &c.cell)
	n := len(c.cell.Jobs)
	ev.free, c.cell.Jobs = c.cell.Jobs[n:], c.cell.Jobs[:n:n]
	if slot >= 0 {
		ev.at[slot] = ev.last + 1
	}
	return c.cost
}

// programCost is est.ProgramCost(p), answered from the last whole-program
// costing's cell when p has the same leaf plans and p's resources lie in
// it: consecutive CP points mostly cost the same plan alike.
func (ev *evaluator) programCost(p *lop.Plan) float64 {
	pc := &ev.prog
	if !walkEveryCosting && pc.ok && slices.Equal(p.Blocks, pc.blocks) && ev.est.Holds(&pc.cell, p.Resources) {
		ev.answered(nil, p, p.Resources, &pc.cell, pc.cost)
		return pc.cost
	}
	pc.blocks = p.Blocks
	pc.cost, pc.ok = ev.est.ProgramCostCell(p, &pc.cell), true
	return pc.cost
}

// answered counts an ask a cell answered as a costing, and hands it to
// the test hook, if set.
func (ev *evaluator) answered(b *lop.Block, p *lop.Plan, res conf.Resources, c *cost.Cell, v float64) {
	ev.est.Invocations++
	if onCellAnswer != nil {
		onCellAnswer(ev.est, b, p, res, c, v)
	}
}

// Test hooks: walkEveryCosting makes every costing walk its plan, as
// searches did before cost cells; onCellAnswer, set through
// export_test.go, sees every ask a cell answers, with the estimator that
// recorded the cell and either the block plan or the program plan asked
// for. Pool workers call it concurrently.
var (
	walkEveryCosting bool
	onCellAnswer     func(est *cost.Estimator, b *lop.Block, p *lop.Plan, res conf.Resources, c *cost.Cell, v float64)
)

// WalkEveryCosting makes every search walk every costing, as searches did
// before cost cells, until restore. It is for tests that compare a search
// against one without cells, and must not be called while a search runs.
func WalkEveryCosting() (restore func()) {
	walkEveryCosting = true
	return func() { walkEveryCosting = false }
}
