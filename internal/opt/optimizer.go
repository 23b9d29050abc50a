package opt

import (
	"math"
	"slices"
	"sync"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/obs"
)

// Options configure the optimizer.
type Options struct {
	// Grid selects the grid generator of both the CP and the MR dimension
	// (the default hybrid combines directed and systematic search).
	Grid GridType
	// Points is the base-grid point count m per dimension (default 15).
	Points int
	// DisablePruning turns off the block pruning of §3.4 (ablation).
	DisablePruning bool
	// Workers > 1 enables the task-parallel optimizer (Appendix C).
	Workers int
	// CPCoreCandidates enumerates the CP core count as an additional
	// search dimension (§6 "Additional Resources Beyond Memory"):
	// multi-threaded CP compute divides by the core count while memory
	// estimates inflate (lop.MultiThreadMemFactor). Empty means the
	// paper's single-threaded CP.
	CPCoreCandidates []int
	// ClusterLoad in [0,1) models current cluster utilization for
	// utilization-based adaptation (§6): MR jobs see only the remaining
	// fraction of worker nodes, which shifts optimal plans toward
	// single-node in-memory execution on loaded clusters.
	ClusterLoad float64
}

// newEstimator builds a cost estimator honoring the cluster-load option.
func (o *Optimizer) newEstimator() *cost.Estimator {
	est := cost.NewEstimator(o.CC)
	if o.Opts.ClusterLoad > 0 && o.Opts.ClusterLoad < 1 {
		est.AvailableFraction = 1 - o.Opts.ClusterLoad
	}
	return est
}

// DefaultOptions returns the paper's default configuration: hybrid grids
// with m=15 and sequential enumeration.
func DefaultOptions() Options {
	return Options{Grid: GridHybrid, Points: 15, Workers: 1}
}

// Stats reports the optimization effort (Table 3 columns).
type Stats struct {
	// BlockCompilations counts the block plans Algorithm 1 asks for: every
	// block of each baseline and whole-program plan, and each MR span a
	// block enumeration enters (MR grid points inside the last plan's span
	// reuse it). The search's selection table answers most of them without
	// running selection.
	BlockCompilations int
	// Costings counts the costings Algorithm 1 asks for (costing the
	// entire program counts as one). A cost cell of an earlier costing of
	// the same plan answers most of them without walking the plan.
	Costings int
	// OptTime is the wall-clock optimization time.
	OptTime time.Duration
	// CPPoints / MRPoints are the enumerated grid sizes.
	CPPoints, MRPoints int
	// TotalBlocks / RemainingBlocks quantify pruning effectiveness
	// (Figure 14): remaining = blocks whose MR dimension was enumerated,
	// maximized over CP grid points.
	TotalBlocks, RemainingBlocks int
	// PrunedBlocks counts per-CP-point block prunings (§3.4: no MR jobs
	// under the baseline compilation, or all dimensions unknown).
	PrunedBlocks int
	// MemoHits counts enumerations skipped because the block was already
	// proven MR-independent at a smaller CP size (monotonic dependency
	// elimination across grid points).
	MemoHits int
	// ReuseHits always reads 0: a search reuses work only within itself.
	// It is kept only so that the benchmark compiles unchanged.
	ReuseHits int
}

// Result is an optimization outcome.
type Result struct {
	// Res is the near-optimal resource configuration R*_P.
	Res conf.Resources
	// Cost is the estimated program execution time under Res.
	Cost float64
	// Stats reports the optimization effort.
	Stats Stats
}

// Optimizer finds near-optimal resource configurations via online what-if
// analysis: for every enumerated configuration it lets the compiler
// generate the runtime plan and costs it, so every memory-sensitive
// compilation step is reflected (robustness by construction, §2.4).
type Optimizer struct {
	CC   conf.Cluster
	Opts Options
	// Trace, when non-nil, receives optimizer-layer spans (one per CP grid
	// point and per block enumeration) and effort counters. Only the
	// sequential optimizer records per-point spans; the task-parallel
	// optimizer (Workers > 1) records the enclosing span only, since
	// worker interleaving would make the event order non-deterministic.
	Trace *obs.Tracer
}

// New returns an optimizer with default options.
func New(cc conf.Cluster) *Optimizer {
	return &Optimizer{CC: cc, Opts: DefaultOptions()}
}

// Optimize solves the resource allocation problem for the program.
func (o *Optimizer) Optimize(hp *hop.Program) *Result {
	global, _ := o.optimize(hp, 0)
	return global
}

// OptimizeWithCurrent additionally reports the best configuration under the
// fixed current CP heap (R*_P | r_c), used by runtime re-optimization to
// compare against migration (§4.2).
func (o *Optimizer) OptimizeWithCurrent(hp *hop.Program, currentCP conf.Bytes) (global, local *Result) {
	return o.optimize(hp, currentCP)
}

// memoEntry is one row of the memoization structure: the best MR heap found
// for a block and its cost (Algorithm 1).
type memoEntry struct {
	ri   conf.Bytes
	cost float64
}

func (o *Optimizer) optimize(hp *hop.Program, currentCP conf.Bytes) (*Result, *Result) {
	start := time.Now()
	srm := EnumGridPoints(hp, o.CC, o.Opts.Grid, o.Opts.Points)
	src := srm
	if currentCP > 0 {
		// On a copy: the MR dimension keeps the grid as enumerated.
		src = dedupeSorted(append(slices.Clone(srm), currentCP))
	}
	stats := Stats{CPPoints: len(src), MRPoints: len(srm), TotalBlocks: hp.NumLeaf}
	osp := o.Trace.Begin(obs.LayerOptimize, "opt.grid-search",
		obs.A("grid", o.Opts.Grid.String()),
		obs.A("cp_points", len(src)), obs.A("mr_points", len(srm)),
		obs.A("blocks", hp.NumLeaf), obs.A("workers", o.Opts.Workers))

	coreCands := o.Opts.CPCoreCandidates
	if len(coreCands) == 0 {
		coreCands = []int{1}
	}

	// The task-parallel search (Appendix C) hands the block enumerations to
	// a worker pool.
	var pool *enumPool
	if o.Opts.Workers > 1 {
		pool = o.startPool(o.Opts.Workers, srm, hp.NumLeaf)
	}
	// One selection table and one set of cost cells serve every plan the
	// search asks for; each pool worker has its own.
	ev := o.newEvaluator(srm, hp.NumLeaf)
	var best, bestLocal *Result
	var pending []*cpPoint
	take := func(p *cpPoint) float64 {
		res, c := o.finish(hp, p, ev, &stats)
		best = better(best, &Result{Res: res, Cost: c})
		if currentCP > 0 && p.rc == currentCP && (bestLocal == nil || c < bestLocal.Cost) {
			bestLocal = &Result{Res: res, Cost: c}
		}
		return c
	}

	for _, cores := range coreCands {
		// Monotonic dependency elimination: once a block lost its MR jobs
		// at some CP size, larger CP sizes never reintroduce them (§3.4).
		// The property holds per core count (memory inflation shifts the
		// thresholds).
		prunedForever := make([]bool, hp.NumLeaf)
		for _, rc := range src {
			if pool != nil {
				p := o.begin(hp, rc, cores, ev, &stats, prunedForever)
				pool.submit(p)
				pending = append(pending, p)
				continue
			}
			var psp *obs.Span
			if o.Trace.SpansEnabled() {
				psp = o.Trace.Begin(obs.LayerOptimize, "opt.cp-point",
					obs.A("cp", rc.String()), obs.A("cores", cores))
			}
			p := o.begin(hp, rc, cores, ev, &stats, prunedForever)
			for k, t := range p.tasks {
				var bsp *obs.Span
				if o.Trace.SpansEnabled() {
					bsp = o.Trace.Begin(obs.LayerOptimize, "opt.enum-block",
						obs.A("block", t.idx), obs.A("cp", rc.String()), obs.A("mr_points", len(srm)))
				}
				p.outs[k] = o.enumBlock(t, srm, ev, &stats)
				if bsp != nil {
					bsp.End(obs.A("best_mr", p.outs[k].ri.String()), obs.A("cost", round6(p.outs[k].cost)))
				}
			}
			c := take(p)
			if psp != nil {
				psp.End(obs.A("cost", round6(c)))
			}
		}
	}
	if pool != nil {
		close(pool.tasks)
		for _, p := range pending {
			p.wg.Wait()
			take(p)
		}
		pool.wait(&stats)
	}
	stats.Costings += ev.est.Invocations
	stats.OptTime = time.Since(start)
	if best != nil {
		osp.End(obs.A("best_cp", best.Res.CP.String()), obs.A("best_cost", round6(best.Cost)))
	} else {
		osp.End()
	}
	if m := o.Trace.Metrics(); m != nil {
		m.Add("opt.runs", 1)
		m.Add("opt.block_compilations", int64(stats.BlockCompilations))
		m.Add("opt.costings", int64(stats.Costings))
		m.Add("opt.pruned_blocks", int64(stats.PrunedBlocks))
		m.Add("opt.memo_hits", int64(stats.MemoHits))
		m.SetGauge("opt.grid_cp_points", float64(stats.CPPoints))
		m.SetGauge("opt.grid_mr_points", float64(stats.MRPoints))
	}
	if best != nil {
		best.Stats = stats
	}
	if bestLocal != nil {
		bestLocal.Stats = stats
	}
	return best, bestLocal
}

// cpPoint is one CP grid point under evaluation (Algorithm 1, lines 5-17):
// begin fills the baseline entries and the enumeration tasks, enumBlock
// answers each task into outs, and finish merges the answers and costs
// the whole program.
type cpPoint struct {
	rc    conf.Bytes
	cores int
	memo  []memoEntry // per block; the baseline entry until finish
	tasks []blockTask
	outs  []memoEntry // per task
	wg    sync.WaitGroup
}

type blockTask struct {
	idx   int
	hb    *hop.Block
	rc    conf.Bytes
	cores int
}

// begin prepares one CP grid point: every block's baseline entry from one
// baseline compilation at the minimal MR heap, the pruning verdicts, and
// one enumeration task per block left.
func (o *Optimizer) begin(hp *hop.Program, rc conf.Bytes, cores int, ev *evaluator,
	stats *Stats, prunedForever []bool) *cpPoint {

	minH := o.CC.MinHeap()
	baseline := ev.tab.Select(hp, conf.NewResources(rc, minH, hp.NumLeaf).WithCores(cores))
	stats.BlockCompilations += countBlocks(baseline)
	p := &cpPoint{rc: rc, cores: cores, memo: make([]memoEntry, hp.NumLeaf)}
	for i, lb := range ev.leavesOf(baseline) {
		p.memo[i] = memoEntry{ri: minH, cost: ev.blockCost(lb, conf.NewResources(rc, minH, 1).WithCores(cores))}
		skip := false
		if !o.Opts.DisablePruning {
			if prunedForever[i] {
				stats.MemoHits++
				skip = true
			} else if pruneBlock(lb) {
				stats.PrunedBlocks++
				if lop.NumMRJobs([]*lop.Block{lb}) == 0 {
					prunedForever[i] = true
				}
				skip = true
			}
		}
		if !skip {
			p.tasks = append(p.tasks, blockTask{idx: i, hb: lb.HopBlock, rc: rc, cores: cores})
		}
	}
	if len(p.tasks) > stats.RemainingBlocks {
		stats.RemainingBlocks = len(p.tasks)
	}
	p.outs = make([]memoEntry, len(p.tasks))
	return p
}

// enumBlock evaluates the second dimension for one block under fixed rc.
// A plan is asked for again only when ri's MR budget leaves the span of
// budgets that select the last plan; srm ascends, so adjacent points
// share a plan until a broadcast or packing threshold is crossed. The
// table answers the ask when an earlier CP point selected the block for
// the same region. Every point is costed.
func (o *Optimizer) enumBlock(t blockTask, srm []conf.Bytes, ev *evaluator, stats *Stats) memoEntry {
	best := memoEntry{cost: -1}
	var lb *lop.Block
	var reg lop.Region
	for _, ri := range srm {
		res := conf.NewResources(t.rc, ri, 1).WithCores(t.cores)
		if lb == nil || !reg.MR.Contains(o.CC.OpBudget(ri)) {
			lb, reg = ev.tab.SelectBlock(t.hb, res)
			stats.BlockCompilations++
		}
		if c := ev.blockCost(lb, res); best.cost < 0 || c < best.cost {
			best = memoEntry{ri: ri, cost: c}
		}
	}
	return best
}

// finish completes a CP grid point: each block keeps its cheaper entry,
// baseline or enumerated, and the whole program is costed once under the
// resulting vector, taking the control structure (loops, branches) into
// account.
func (o *Optimizer) finish(hp *hop.Program, p *cpPoint, ev *evaluator, stats *Stats) (conf.Resources, float64) {
	for k, t := range p.tasks {
		if p.outs[k].cost < p.memo[t.idx].cost {
			p.memo[t.idx] = p.outs[k]
		}
	}
	res := conf.Resources{CP: p.rc, MR: make([]conf.Bytes, len(p.memo)), CPCores: p.cores}
	for i := range p.memo {
		res.MR[i] = p.memo[i].ri
	}
	full := ev.tab.Select(hp, res)
	stats.BlockCompilations += countBlocks(full)
	return res, ev.programCost(full)
}

// better keeps the candidate with strictly lower cost; ties keep the
// earlier (ascending enumeration => minimal) configuration, implementing
// the min() over arg-min of Definition 1 and preventing over-provisioning.
func better(best, cand *Result) *Result {
	if best == nil || cand.Cost < best.Cost {
		return cand
	}
	return best
}

func countBlocks(p *lop.Plan) int {
	n := 0
	lop.WalkBlocks(p.Blocks, func(*lop.Block) { n++ })
	return n
}

// round6 trims costs to microsecond precision for trace args: full float64
// noise adds nothing for humans and bloats the trace.
func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// pruneBlock reports whether a block's cost is guaranteed independent of
// its MR resources (§3.4): either it contains no MR jobs under the
// baseline compilation, or all its MR operations have unknown dimensions
// (no plan change can be costed differently).
func pruneBlock(lb *lop.Block) bool {
	jobs := 0
	allUnknown := true
	for _, in := range lb.Instrs {
		if in.Kind != lop.InstrMR {
			continue
		}
		jobs++
		for _, op := range in.Job.Ops {
			if op.Hop.DimsKnown() {
				allUnknown = false
			}
		}
	}
	if jobs == 0 {
		return true
	}
	return allUnknown
}
