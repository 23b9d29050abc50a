package opt

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/lop"
	"elasticml/internal/scripts"
)

// CellOracle re-costs every ask a cost cell answers with a fresh estimator
// and requires the answer to the bit; it re-costs it too at both ends of
// the cell's CP budget span, which it reaches by moving the cluster's CP
// budget ratio (only the buffer-pool budget reads it). Check is the hook
// OnCellAnswer takes.
type CellOracle struct {
	mu sync.Mutex
	// Answered counts the asks checked, Ends the span ends costed.
	Answered, Ends int
	// Problem names what runs, for the failures.
	Problem  string
	Failures []string
}

// Check re-costs one answered ask.
func (o *CellOracle) Check(est *cost.Estimator, b *lop.Block, p *lop.Plan, res conf.Resources, c *cost.Cell, v float64) {
	recost := func(cc conf.Cluster) float64 {
		fresh := cost.NewEstimator(cc)
		fresh.EvictionWeight, fresh.AvailableFraction = est.EvictionWeight, est.AvailableFraction
		if b != nil {
			return fresh.BlockCost(b, res)
		}
		return fresh.ProgramCost(p)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Answered++
	fail := func(format string, args ...any) {
		what := "program"
		if b != nil {
			what = fmt.Sprintf("block %d", b.Index)
		}
		o.Failures = append(o.Failures, fmt.Sprintf("%s, %s at %s: ", o.Problem, what, res.Detailed())+fmt.Sprintf(format, args...))
	}
	if got := recost(est.CC); math.Float64bits(got) != math.Float64bits(v) {
		fail("cell answered %v, a fresh costing gives %v", v, got)
		return
	}
	if est.EvictionWeight <= 0 {
		return
	}
	top := c.Budget.Hi - 1
	if c.Budget.Hi == math.MaxInt64 {
		top = 1 << 50 // an unbounded span: a budget no grid reaches
	}
	for _, end := range []conf.Bytes{c.Budget.Lo, top} {
		if end < 1 {
			continue
		}
		cc := est.CC
		cc.CPBudgetRatio = (float64(end) + 0.5) / float64(res.CP)
		if cc.OpBudget(res.CP) != end {
			fail("no budget ratio gives budget %d at CP %d", end, res.CP)
			continue
		}
		o.Ends++
		if got := recost(cc); math.Float64bits(got) != math.Float64bits(v) {
			fail("budget span [%d, %d) holds %v, but budget %d costs %v", c.Budget.Lo, c.Budget.Hi, v, end, got)
		}
	}
}

// Report fails t with the first failures and logs the counts.
func (o *CellOracle) Report(t testing.TB) {
	t.Helper()
	for i, f := range o.Failures {
		if i == 20 {
			t.Errorf("... %d failures in all", len(o.Failures))
			break
		}
		t.Error(f)
	}
	if o.Answered == 0 || o.Ends == 0 {
		t.Errorf("cells answered %d asks and %d span ends were costed; the oracle checked nothing", o.Answered, o.Ends)
	}
	t.Logf("%d answered asks and %d span ends re-costed", o.Answered, o.Ends)
}

// TestCellAnswersExact is the exactness oracle of cost cells: every ask a
// cell answers in the sequential search of all 100 paper-grid problems, in
// a task-parallel search and in a search under a width-clamped view costs
// the same to the bit with a fresh estimator, and at both ends of
// the cell's CP budget span.
func TestCellAnswersExact(t *testing.T) {
	o := &CellOracle{}
	defer OnCellAnswer(o.Check)()
	cc := conf.DefaultCluster()
	for _, p := range paperGrid(t) {
		o.Problem = p.name
		New(cc).Optimize(p.hp)
	}
	hp := compileScenario(t, scripts.GLM(), datagen.New("L", 1000, 1.0))
	o.Problem = "GLM L dense1000, 4 workers and 3 core counts"
	par := New(cc)
	par.Opts.Workers, par.Opts.CPCoreCandidates = 4, []int{1, 2, 4}
	par.Optimize(hp)
	o.Problem = "GLM L dense1000 under a width-clamped view"
	New(WidthClamped(cc, 4*conf.GB)).Optimize(hp)
	o.Report(t)
}
