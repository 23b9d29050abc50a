package opt

import (
	"math"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/obs"
)

// Options configure the optimizer.
type Options struct {
	// GridCP / GridMR select the per-dimension grid generators (the
	// default hybrid combines directed and systematic search).
	GridCP, GridMR GridType
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
	// TimeBudget bounds optimization time; zero means unbounded. When the
	// budget is exceeded, the best configuration found so far is returned.
	TimeBudget time.Duration
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
	return Options{GridCP: GridHybrid, GridMR: GridHybrid, Points: 15, Workers: 1}
}

// Stats reports the optimization effort (Table 3 columns).
type Stats struct {
	// BlockCompilations counts per-block plan generations.
	BlockCompilations int
	// Costings counts cost-model invocations (costing the entire program
	// counts as one).
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
	// ReuseHits counts cost evaluations answered by the re-costing memo
	// (OptimizeMemo) instead of a fresh compile-and-cost.
	ReuseHits int
	// ReplayedPoints counts CP grid points fully replayed from the
	// re-costing memo — no baseline compilation, no enumeration.
	ReplayedPoints int
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
	global, _ := o.optimize(hp, 0, nil)
	return global
}

// OptimizeMemo solves the resource allocation problem through a re-costing
// memo: cost evaluations recorded by earlier searches over the same program
// (possibly under different cluster states) are reused whenever the changed
// cluster dimensions provably cannot have altered them, and fresh
// evaluations are recorded for later searches. The result is identical to
// Optimize by construction — the memo only replaces compile-and-cost calls
// with their memoized values. A nil memo degenerates to Optimize. The memo
// path always uses the sequential enumeration (which the task-parallel
// optimizer matches result-for-result), so Workers is ignored here.
func (o *Optimizer) OptimizeMemo(hp *hop.Program, m *Memo) *Result {
	global, _ := o.optimize(hp, 0, newMemoView(m, o.CC))
	return global
}

// OptimizeWithCurrent additionally reports the best configuration under the
// fixed current CP heap (R*_P | r_c), used by runtime re-optimization to
// compare against migration (§4.2).
func (o *Optimizer) OptimizeWithCurrent(hp *hop.Program, currentCP conf.Bytes) (global, local *Result) {
	return o.optimize(hp, currentCP, nil)
}

// memoEntry is one row of the memoization structure: the best MR heap found
// for a block and its cost (Algorithm 1).
type memoEntry struct {
	ri   conf.Bytes
	cost float64
}

func (o *Optimizer) optimize(hp *hop.Program, currentCP conf.Bytes, mv *memoView) (*Result, *Result) {
	start := time.Now()
	src := EnumGridPoints(hp, o.CC, o.Opts.GridCP, o.Opts.Points)
	srm := EnumGridPoints(hp, o.CC, o.Opts.GridMR, o.Opts.Points)
	if currentCP > 0 {
		src = dedupeSorted(append(src, currentCP))
	}
	stats := Stats{CPPoints: len(src), MRPoints: len(srm), TotalBlocks: hp.NumLeaf}
	osp := o.Trace.Begin(obs.LayerOptimize, "opt.grid-search",
		obs.A("grid_cp", o.Opts.GridCP.String()), obs.A("grid_mr", o.Opts.GridMR.String()),
		obs.A("cp_points", len(src)), obs.A("mr_points", len(srm)),
		obs.A("blocks", hp.NumLeaf), obs.A("workers", o.Opts.Workers))

	coreCands := o.Opts.CPCoreCandidates
	if len(coreCands) == 0 {
		coreCands = []int{1}
	}

	var best, bestLocal *Result

	deadline := time.Time{}
	if o.Opts.TimeBudget > 0 {
		deadline = start.Add(o.Opts.TimeBudget)
	}

	for _, cores := range coreCands {
		// Monotonic dependency elimination: once a block lost its MR jobs
		// at some CP size, larger CP sizes never reintroduce them (§3.4).
		// The property holds per core count (memory inflation shifts the
		// thresholds).
		prunedForever := make([]bool, hp.NumLeaf)
		if o.Opts.Workers > 1 && mv == nil {
			b, bl := o.optimizeParallel(hp, src, srm, currentCP, cores, &stats, prunedForever, deadline)
			if b != nil {
				best = better(best, b)
			}
			if bl != nil && bestLocal == nil {
				bestLocal = bl
			}
			continue
		}
		est := o.newEstimator()
		for _, rc := range src {
			// At least one configuration is always evaluated, even when
			// the time budget is already exhausted.
			if best != nil && !deadline.IsZero() && time.Now().After(deadline) {
				break
			}
			var psp *obs.Span
			if o.Trace.SpansEnabled() {
				psp = o.Trace.Begin(obs.LayerOptimize, "opt.cp-point",
					obs.A("cp", rc.String()), obs.A("cores", cores))
			}
			res, cand := o.evalCP(hp, rc, cores, srm, est, &stats, prunedForever, mv)
			psp.End(obs.A("cost", round6(cand)))
			best = better(best, &Result{Res: res, Cost: cand})
			if currentCP > 0 && rc == currentCP && (bestLocal == nil || cand < bestLocal.Cost) {
				bestLocal = &Result{Res: res, Cost: cand}
			}
		}
		stats.Costings += est.Invocations
	}
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

// evalCP evaluates one CP grid point: baseline compilation at minimal MR
// resources, pruning, per-block MR enumeration with memoization, and a
// final whole-program costing under the memoized vector (Algorithm 1,
// lines 5-17). mv, when non-nil, first attempts a full replay of the point
// from the re-costing memo and otherwise records every fresh evaluation
// into it.
func (o *Optimizer) evalCP(hp *hop.Program, rc conf.Bytes, cores int, srm []conf.Bytes,
	est *cost.Estimator, stats *Stats, prunedForever []bool, mv *memoView) (conf.Resources, float64) {

	n := hp.NumLeaf
	minH := o.CC.MinHeap()
	if res, c, ok := o.replayCP(hp, rc, cores, srm, minH, est, stats, prunedForever, mv); ok {
		return res, c
	}
	baseline := lop.Select(hp, o.CC, withCores(conf.NewResources(rc, minH, n), cores))
	stats.BlockCompilations += countBlocks(baseline)

	memo := make([]memoEntry, n)
	leaves := baseline.LeafBlocks()
	var tasks []blockTask
	remaining := 0
	for i, lb := range leaves {
		bc := est.BlockCost(lb, withCores(conf.NewResources(rc, minH, 1), cores))
		memo[i] = memoEntry{ri: minH, cost: bc}
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
		if mv != nil {
			mv.recordBaseline(cores, rc, minH, i, bc, lop.NumMRJobs([]*lop.Block{lb}) > 0, skip)
		}
		if skip {
			continue
		}
		remaining++
		tasks = append(tasks, blockTask{idx: i, hb: lb.HopBlock, rc: rc, cores: cores})
	}
	if remaining > stats.RemainingBlocks {
		stats.RemainingBlocks = remaining
	}

	for _, t := range tasks {
		var bsp *obs.Span
		if o.Trace.SpansEnabled() {
			bsp = o.Trace.Begin(obs.LayerOptimize, "opt.enum-block",
				obs.A("block", t.idx), obs.A("cp", t.rc.String()), obs.A("mr_points", len(srm)))
		}
		entry := o.enumBlock(t, srm, est, stats, mv)
		bsp.End(obs.A("best_mr", entry.ri.String()), obs.A("cost", round6(entry.cost)))
		if entry.cost < memo[t.idx].cost {
			memo[t.idx] = entry
		}
	}

	// Whole-program compilation under the memoized vector, taking the
	// control structure (loops, branches) into account.
	resVec := conf.Resources{CP: rc, MR: make([]conf.Bytes, n), CPCores: cores}
	for i := range memo {
		resVec.MR[i] = memo[i].ri
	}
	full := lop.Select(hp, o.CC, resVec)
	stats.BlockCompilations += countBlocks(full)
	pc := est.ProgramCost(full)
	if mv != nil {
		mv.recordProg(cores, rc, vecString(resVec.MR), pc, lop.NumMRJobs(full.Blocks) > 0)
	}
	return resVec, pc
}

// replayCP re-derives one CP grid point entirely from the re-costing memo:
// every baseline cost, pruning verdict, and enumeration cost the fresh path
// would compute must be present and valid under the current cluster, or the
// replay is abandoned (the fresh path then fills the gaps). A successful
// replay skips the baseline compilation and the whole per-block enumeration
// and mirrors the fresh path's memo/pruning bookkeeping, so subsequent
// points see the same prunedForever state either way.
func (o *Optimizer) replayCP(hp *hop.Program, rc conf.Bytes, cores int, srm []conf.Bytes,
	minH conf.Bytes, est *cost.Estimator, stats *Stats, prunedForever []bool,
	mv *memoView) (conf.Resources, float64, bool) {

	if mv == nil {
		return conf.Resources{}, 0, false
	}
	n := hp.NumLeaf
	memo := make([]memoEntry, n)
	remaining := 0
	// Stats mirrored only after the whole point proves replayable.
	memoHits, prunedBlocks := 0, 0
	var newlyForever []int
	for i := 0; i < n; i++ {
		bv, ok := mv.baseline(cores, rc, minH, i)
		if !ok {
			return conf.Resources{}, 0, false
		}
		memo[i] = memoEntry{ri: minH, cost: bv.cost}
		if !o.Opts.DisablePruning {
			if prunedForever[i] {
				memoHits++
				continue
			}
			if bv.pruned {
				prunedBlocks++
				if !bv.mr {
					newlyForever = append(newlyForever, i)
				}
				continue
			}
		}
		best := memoEntry{cost: -1}
		for _, ri := range srm {
			c, ok := mv.blockCost(cores, rc, ri, i)
			if !ok {
				return conf.Resources{}, 0, false
			}
			if best.cost < 0 || c < best.cost {
				best = memoEntry{ri: ri, cost: c}
			}
		}
		remaining++
		if best.cost < memo[i].cost {
			memo[i] = best
		}
	}

	resVec := conf.Resources{CP: rc, MR: make([]conf.Bytes, n), CPCores: cores}
	for i := range memo {
		resVec.MR[i] = memo[i].ri
	}
	vec := vecString(resVec.MR)
	pc, ok := mv.progCost(cores, rc, vec)
	if !ok {
		// The block table replayed but the final costing did not (an
		// MR-bearing vector under a changed cluster): one compile + costing
		// still beats re-enumerating the whole point.
		full := lop.Select(hp, o.CC, resVec)
		stats.BlockCompilations += countBlocks(full)
		pc = est.ProgramCost(full)
		mv.recordProg(cores, rc, vec, pc, lop.NumMRJobs(full.Blocks) > 0)
	}

	stats.MemoHits += memoHits
	stats.PrunedBlocks += prunedBlocks
	for _, i := range newlyForever {
		prunedForever[i] = true
	}
	if remaining > stats.RemainingBlocks {
		stats.RemainingBlocks = remaining
	}
	stats.ReplayedPoints++
	return resVec, pc, true
}

// enumBlock evaluates the second dimension for one block under fixed rc.
// Individual (rc, ri) evaluations answered by the re-costing memo skip the
// per-point compile-and-cost; fresh evaluations are recorded.
func (o *Optimizer) enumBlock(t blockTask, srm []conf.Bytes, est *cost.Estimator, stats *Stats, mv *memoView) memoEntry {
	best := memoEntry{cost: -1}
	for _, ri := range srm {
		c, ok := mv.blockCost(t.cores, t.rc, ri, t.idx)
		if ok {
			stats.ReuseHits++
		} else {
			res := withCores(conf.NewResources(t.rc, ri, 1), t.cores)
			lb := lop.SelectBlock(t.hb, o.CC, res)
			stats.BlockCompilations++
			c = est.BlockCost(lb, res)
			mv.recordBlock(t.cores, t.rc, ri, t.idx, c, lop.NumMRJobs([]*lop.Block{lb}) > 0)
		}
		if best.cost < 0 || c < best.cost {
			best = memoEntry{ri: ri, cost: c}
		}
	}
	return best
}

type blockTask struct {
	idx   int
	hb    *hop.Block
	rc    conf.Bytes
	cores int
}

func withCores(r conf.Resources, cores int) conf.Resources {
	return r.WithCores(cores)
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
