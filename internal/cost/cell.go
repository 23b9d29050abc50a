package cost

import (
	"math"

	"elasticml/internal/conf"
	"elasticml/internal/lop"
	"elasticml/internal/mr"
)

// A costing reads its resource vector through three things only: the CP
// operation budget, which VarState.admit tests the buffer pool's fill
// against; each MR job's map-phase parallelism, the one way the job's task
// heap and the CP heap reach the phase model; and the CP core count. Each
// is a step function of the resources, so one costing holds, to the bit,
// for every resource vector under which all three read the same.

// Cell is the set of resource vectors under which every resource-dependent
// comparison of one costing comes out as it did, so that costing the same
// plan under any of them returns the same time.
type Cell struct {
	// Budget is the span of CP operation budgets that resolve every
	// buffer-pool test the same way.
	Budget lop.Span
	// Cores is the CP core count the costing read.
	Cores int
	// Jobs are the MR jobs it charged, each once.
	Jobs []CellJob
}

// CellJob is one MR job a costing charged: the index its task heap is read
// at (hop.Block.Index), its map-task count, and the parallelism it got.
type CellJob struct {
	Block   int
	NumMaps int
	Par     mr.Parallelism
}

// anyBudget is a cell's span before any test of the budget.
var anyBudget = lop.Span{Lo: 0, Hi: math.MaxInt64}

// BlockCostCell is BlockCost that records the costing's cell into c,
// reusing the storage of c.Jobs.
func (e *Estimator) BlockCostCell(b *lop.Block, res conf.Resources, c *Cell) float64 {
	e.cell = c
	t := e.BlockCost(b, res)
	e.cell = nil
	return t
}

// ProgramCostCell is ProgramCost that records the costing's cell into c,
// reusing the storage of c.Jobs.
func (e *Estimator) ProgramCostCell(p *lop.Plan, c *Cell) float64 {
	e.cell = c
	t := e.ProgramCost(p)
	e.cell = nil
	return t
}

// Holds reports whether res lies in the cell this estimator recorded, so
// that costing the cell's plan under res returns the recorded time. A cell
// never holds for an estimator with a Hook, which must see every charge.
func (e *Estimator) Holds(c *Cell, res conf.Resources) bool {
	if e.Hook != nil || res.Cores() != c.Cores || !c.Budget.Contains(e.budget(res)) {
		return false
	}
	cc := e.effectiveCluster()
	for _, j := range c.Jobs {
		if mr.ComputeParallelism(cc, res.MRFor(j.Block), res.CP, j.NumMaps) != j.Par {
			return false
		}
	}
	return true
}

// budget is the buffer-pool capacity a costing under res tests against.
func (e *Estimator) budget(res conf.Resources) conf.Bytes {
	if e.EvictionWeight > 0 {
		return e.CC.OpBudget(res.CP)
	}
	return 0
}

// startCell resets the cell being recorded, if any, for a costing under res.
func (e *Estimator) startCell(res conf.Resources, s *VarState) {
	if c := e.cell; c != nil {
		*c = Cell{Budget: anyBudget, Cores: res.Cores(), Jobs: c.Jobs[:0]}
		s.span = &c.Budget
	}
}

// recordJob adds an MR job to the cell being recorded, if any. A job met
// again, as in a loop body's steady iteration, gets the same parallelism.
func (e *Estimator) recordJob(block, maps int, par mr.Parallelism) {
	c := e.cell
	if c == nil {
		return
	}
	for _, j := range c.Jobs {
		if j.Block == block && j.NumMaps == maps {
			return
		}
	}
	c.Jobs = append(c.Jobs, CellJob{Block: block, NumMaps: maps, Par: par})
}
