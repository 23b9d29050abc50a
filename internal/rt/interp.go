package rt

import (
	"errors"
	"fmt"
	"io"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/mr"
	"elasticml/internal/obs"
)

// ErrClusterLost aborts execution when a node failure takes out the last
// live worker node: no resource configuration can complete the program.
var ErrClusterLost = errors.New("rt: all cluster nodes failed")

// Stats aggregates execution counters.
type Stats struct {
	Instructions int
	MRJobs       int
	Recompiles   int
	Migrations   int

	// Fault-recovery counters (0 without an injector).
	NodeFailures int
	TaskRetries  int
	Stragglers   int
	Speculated   int
	HDFSRetries  int
	// RecoverySeconds is the simulated time spent on re-execution of
	// failed/straggling tasks and HDFS re-reads.
	RecoverySeconds float64
}

// Trigger identifies why the adapter was consulted.
type Trigger int

const (
	// TriggerRecompile: dynamic recompilation of a block still produced MR
	// jobs (paper §4.2 — the initial configuration was off).
	TriggerRecompile Trigger = iota
	// TriggerContainerLoss: a node failure shrank the cluster; the adapter
	// re-optimizes under the reduced capacity (graceful degradation).
	TriggerContainerLoss
)

func (t Trigger) String() string {
	if t == TriggerContainerLoss {
		return "container-loss"
	}
	return "recompile"
}

// AdaptContext is handed to the resource adapter when a dynamic
// recompilation produced MR jobs (paper §4.2) or the cluster lost a node.
type AdaptContext struct {
	// Plan is the currently executing plan.
	Plan *lop.Plan
	// Block is the recompiled generic block's plan in Plan.Blocks; its
	// HopBlock's parents are the control blocks around it.
	Block *lop.Block
	// Res is the current resource configuration.
	Res conf.Resources
	// Vars serves the runtime metadata (sizes now known) of every live
	// variable — not only the block's read set, since the
	// re-optimization scope reads past the block. It is a view of the
	// interpreter's variables, valid for the consult only.
	Vars hop.Vars
	// DirtyBytes is the size of dirty live variables (migration IO).
	DirtyBytes conf.Bytes
	// Compiler recompiles re-optimization scopes from source.
	Compiler *hop.Compiler
	// Trigger is the adaptation cause.
	Trigger Trigger
	// CC is the interpreter's current cluster view — after node failures it
	// is smaller than the configuration the plan was optimized for, and the
	// adapter must re-optimize against it.
	CC conf.Cluster
}

// AdaptDecision is the adapter's verdict.
type AdaptDecision struct {
	// NewRes is the configuration to continue with.
	NewRes conf.Resources
	// Migrate indicates an AM runtime migration (CP memory change).
	Migrate bool
	// ExtraTime is the charged adaptation overhead (optimization time plus
	// migration costs if any).
	ExtraTime float64
}

// Adapter decides on runtime resource adaptation.
type Adapter interface {
	Adapt(ctx *AdaptContext) *AdaptDecision
}

// Interp executes runtime plans.
type Interp struct {
	Mode Mode
	FS   *hdfs.FS
	CC   conf.Cluster
	Res  conf.Resources
	// Compiler recompiles the program's blocks: Run sets it to a Fork of
	// the compiler that built the program, over FS, so a run never changes
	// the compiler other runs share.
	Compiler *hop.Compiler
	// Est charges per-instruction simulated time (evictions enabled).
	Est   *cost.Estimator
	State *cost.VarState
	// Vars is the live-variable table.
	Vars map[string]*Value
	// Out receives print() output.
	Out io.Writer
	// SimTime is the accumulated simulated execution time in seconds.
	SimTime float64
	Stats   Stats
	// SimTableCols is the data-dependent column count produced by table()
	// in sim mode (the class count of the simulated label vector).
	SimTableCols int64
	// Adapter, when set, is consulted for runtime resource adaptation.
	Adapter Adapter
	// Faults, when set, injects node failures (shrinking the cluster and
	// triggering re-optimization), per-task failures/stragglers in MR jobs,
	// and transient HDFS read errors.
	Faults *fault.Injector
	// Policy governs task-level failure handling of MR jobs under fault
	// injection; the zero value normalizes to Hadoop's 4 attempts with
	// speculation off (mr.DefaultTaskPolicy turns it on).
	Policy mr.TaskPolicy
	// Trace, when non-nil, receives runtime- and cluster-layer spans: one
	// complete span per executed instruction (stamped with the simulated
	// clock), MR job phase spans, task-attempt fault events, and adaptation
	// spans. Run installs SimTime as the tracer's clock for its duration.
	Trace *obs.Tracer
	// MemHook, when set in value mode, observes every evaluated hop right
	// after its kernel returns: the hop (carrying the compile-time memory
	// estimates in effect for this execution), its distinct materialized
	// matrix inputs, and the produced matrix (nil for scalars). The
	// estimate-soundness auditor uses it to compare actual footprints
	// against the worst-case estimates.
	MemHook func(h *hop.Hop, inputs []*matrix.Matrix, out *matrix.Matrix)

	plan *lop.Plan
	// resChanged reports that Res or CC no longer is what plan was
	// selected under, so every block is selected again before it runs.
	resChanged bool
	// last maps each compiled block that execGeneric recompiled or
	// selected again to what its last execution built, whose storage the
	// next execution overwrites (see hop.Compiler.RecompileGeneric and
	// lop.SelectBlock). ev is the one evaluation buffer every block and
	// header evaluation resets. Both belong to the interpreter alone: a
	// Compiler and a Program are shared by runs on other goroutines, an
	// interpreter is not.
	last map[*hop.Block]built
	ev   env
	// fresh, set only by tests, makes every evaluation, recompile and
	// selection draw new storage: the reference the reuse is checked
	// against.
	fresh bool
}

// built is what one execution of a generic block built: the recompiled
// block (nil if the compiled one ran) and the plan selected for it. Both
// are valid until the next execution of the same compiled block, and
// nothing keeps them longer: bound values are copies, trace labels are
// strings, and the adapter is handed the compiled block.
type built struct {
	hb   *hop.Block
	plan *lop.Block
}

// New returns an interpreter for the given mode, file system, cluster and
// initial resource configuration.
func New(mode Mode, fs *hdfs.FS, cc conf.Cluster, res conf.Resources) *Interp {
	est := cost.NewEstimator(cc)
	est.EvictionWeight = 1.0 // the simulator charges evictions in full
	return &Interp{
		Mode:         mode,
		FS:           fs,
		CC:           cc,
		Res:          res.Clone(),
		Est:          est,
		State:        cost.NewVarState(cc.OpBudget(res.CP)),
		Vars:         map[string]*Value{},
		Out:          io.Discard,
		SimTableCols: 2,
	}
}

// Run executes the plan to completion, accumulating simulated time. It
// refuses a program no compiler built, since nothing could recompile it.
func (ip *Interp) Run(plan *lop.Plan) error {
	comp := plan.HopProgram.Compiler()
	if comp == nil {
		return errors.New("rt: the program has no compiler: Run takes a program Compile, CompileScript or RebuildScope built")
	}
	ip.Compiler = comp.Fork(ip.FS)
	ip.plan = plan
	if ip.Trace.Enabled() {
		if ip.Compiler.Trace == nil {
			ip.Compiler.Trace = ip.Trace
		}
		// From here the trace timeline is the simulated clock; compile and
		// optimization events recorded earlier (logical ticks) stay anchored
		// before it.
		ip.Trace.SetClock(func() float64 { return ip.SimTime })
		defer ip.Trace.SetClock(nil)
		defer ip.flushMetrics(ip.Stats, [2]int{ip.State.Evictions, ip.State.Restores})
	}
	if ip.Faults != nil && ip.Faults.Plan().HDFSReadErrorProb > 0 {
		// Compilation is done (the compiler reads metadata via Stat); from
		// here every payload read may fail transiently.
		ip.FS.SetReadFault(ip.Faults.HDFSReadFails)
		defer ip.FS.SetReadFault(nil)
	}
	sp := ip.Trace.Begin(obs.LayerRuntime, "rt.run", obs.A("cp", ip.Res.CP.String()))
	err := ip.execBlocks(plan.HopProgram.Blocks)
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return err
	}
	sp.End()
	return nil
}

// flushMetrics adds this run's execution counters to the metrics registry,
// as deltas against the given start-of-run snapshots (of the buffer pool's
// evictions and restores in state0) so repeated Runs on one interpreter do
// not double-count.
func (ip *Interp) flushMetrics(start Stats, state0 [2]int) {
	m := ip.Trace.Metrics()
	if m == nil {
		return
	}
	m.Add("rt.instructions", int64(ip.Stats.Instructions-start.Instructions))
	m.Add("rt.mr_jobs", int64(ip.Stats.MRJobs-start.MRJobs))
	m.Add("rt.recompiles", int64(ip.Stats.Recompiles-start.Recompiles))
	m.Add("rt.migrations", int64(ip.Stats.Migrations-start.Migrations))
	m.Add("rt.node_failures", int64(ip.Stats.NodeFailures-start.NodeFailures))
	m.Add("rt.task_retries", int64(ip.Stats.TaskRetries-start.TaskRetries))
	m.Add("rt.stragglers", int64(ip.Stats.Stragglers-start.Stragglers))
	m.Add("rt.speculated", int64(ip.Stats.Speculated-start.Speculated))
	m.Add("rt.hdfs_retries", int64(ip.Stats.HDFSRetries-start.HDFSRetries))
	m.Add("bufferpool.evictions", int64(ip.State.Evictions-state0[0]))
	m.Add("bufferpool.restores", int64(ip.State.Restores-state0[1]))
	m.SetGauge("bufferpool.eviction_bytes", float64(ip.State.EvictionIO()))
	m.SetGauge("rt.sim_seconds", ip.SimTime)
	m.SetGauge("rt.recovery_seconds", ip.Stats.RecoverySeconds)
}

// readAttempts is the DFS read budget: with fault injection active, reads
// retry like the task policy retries tasks; otherwise a single attempt.
func (ip *Interp) readAttempts() int {
	if ip.Faults == nil {
		return 1
	}
	return ip.Policy.Normalized().MaxAttempts
}

// execBlocks runs the blocks of the plan's program: a generic block runs
// its plan, ip.plan.Blocks[b.Index].
func (ip *Interp) execBlocks(blocks []*hop.Block) error {
	for _, b := range blocks {
		if err := ip.execBlock(b); err != nil {
			return err
		}
	}
	return nil
}

func (ip *Interp) execBlock(b *hop.Block) error {
	switch b.Kind {
	case dml.GenericBlock:
		return ip.execGeneric(ip.plan.Blocks[b.Index])
	case dml.IfBlockKind:
		pv, err := ip.evalPredicate(b, b.Pred)
		if err != nil {
			return err
		}
		// Unknown predicates (sim mode) skip the conditional body, which
		// keeps convergence-exit branches from firing early.
		if pv.Known && pv.Bool() {
			return ip.execBlocks(b.Then)
		}
		return ip.execBlocks(b.Else)
	case dml.WhileBlockKind:
		return ip.execWhile(b)
	case dml.ForBlockKind:
		return ip.execFor(b)
	}
	return fmt.Errorf("rt: unknown block kind %v", b.Kind)
}

// simLoopCap bounds a while loop in sim mode whose predicate stays known.
// A predicate that is unknown on descriptors stops the loop after
// cost.DefaultIters (5) trips first, as the cost model assumes. A known one
// (a counter against a known bound, say) runs its real trip count, up to
// this cap. The model charges every while loop DefaultIters trips, so such
// a loop simulates up to twice the trips the model charged.
const simLoopCap = 10

func (ip *Interp) execWhile(b *hop.Block) error {
	unknownIters := 0
	for iter := 0; ; iter++ {
		if ip.Mode == ModeSim && iter >= simLoopCap {
			// A predicate unknown on more than DefaultIters trips
			// stopped the loop below; this stops one that stays known.
			return nil
		}
		pv, err := ip.evalPredicate(b, b.Pred)
		if err != nil {
			return err
		}
		if pv.Known {
			if !pv.Bool() {
				return nil
			}
		} else {
			unknownIters++
			if unknownIters > cost.DefaultIters {
				return nil
			}
		}
		if err := ip.execBlocks(b.Body); err != nil {
			return err
		}
	}
}

func (ip *Interp) execFor(b *hop.Block) error {
	fromV, err := ip.evalPredicate(b, b.From)
	if err != nil {
		return err
	}
	toV, err := ip.evalPredicate(b, b.To)
	if err != nil {
		return err
	}
	from, to := int64(1), int64(cost.DefaultIters)
	if fromV.Known && toV.Known {
		from, to = int64(fromV.Scalar), int64(toV.Scalar)
	}
	start := ip.SimTime
	for i := from; i <= to; i++ {
		ip.Vars[b.Var] = ScalarValue(float64(i))
		if err := ip.execBlocks(b.Body); err != nil {
			return err
		}
	}
	if !b.Parallel {
		return nil
	}
	// parfor iterations execute on concurrent workers: values are computed
	// sequentially (independence is the script's contract), but wall-clock
	// time divides by the worker count. A parfor inside another runs on
	// one of its single-threaded workers.
	if k := hop.ParforWorkers(b.OpCores(ip.Res.Cores()), to-from+1); k > 1 {
		ip.SimTime = start + (ip.SimTime-start)/float64(k)
	}
	return nil
}

// evalPredicate evaluates one of a control block's scalar header DAGs
// against the live variables. It returns a copy: the next evaluation
// overwrites the buffer the value was built in, and execFor holds its From
// value while it evaluates To.
func (ip *Interp) evalPredicate(b *hop.Block, pred *hop.Hop) (Value, error) {
	if pred == nil {
		return Value{Scalar: 1, Known: true}, nil
	}
	v, err := newEnv(ip, b.Header).eval(pred)
	if err != nil {
		return Value{}, err
	}
	return *v, nil
}

// liveVars serves a recompile or an adapter consult the compiler metadata
// of the interpreter's live variables, looked up by name: no table is
// built.
type liveVars map[string]*Value

func (vs liveVars) Meta(name string) (hop.VarMeta, bool) {
	v, ok := vs[name]
	if !ok {
		return hop.VarMeta{}, false
	}
	return v.meta(), true
}

// recompile is how execGeneric recompiles a generic block against the live
// variables, into prev, the block the last execution of b recompiled (nil
// on the first). A variable so that tests can check each recompile of a run
// against one from the block's read set alone, or into new storage.
var recompile = func(ip *Interp, b, prev *hop.Block) (*hop.Block, error) {
	return ip.Compiler.RecompileGeneric(b, liveVars(ip.Vars), prev)
}

// execGeneric runs one generic block: node-failure delivery, dynamic
// recompilation if needed, adaptation hook, time charging, and
// value/metadata evaluation.
func (ip *Interp) execGeneric(b *lop.Block) error {
	if err := ip.processNodeFailures(b); err != nil {
		return err
	}
	// cb is the compiled block: its flag, not a recompile's, decides.
	cb := b.HopBlock
	exec, hb := b, cb
	var last built
	if !ip.fresh {
		last = ip.last[cb]
	}
	if cb.Recompile {
		var err error
		if hb, err = recompile(ip, cb, last.hb); err != nil {
			return fmt.Errorf("rt: dynamic recompilation failed: %w", err)
		}
		ip.Stats.Recompiles++
	}
	// A block the compile sized exactly keeps its DAG; after a resource
	// or cluster change it is only selected again.
	if cb.Recompile || ip.resChanged {
		exec = lop.SelectBlock(hb, ip.CC, ip.Res, last.plan)
	}
	// Runtime resource adaptation triggers only when the recompiled block
	// still spawns MR jobs (paper §4.2); the block is selected again if
	// the adapter changed the resources.
	if cb.Recompile && ip.Adapter != nil && lop.NumMRJobs([]*lop.Block{exec}) > 0 && ip.adapt(b, TriggerRecompile) {
		exec = lop.SelectBlock(hb, ip.CC, ip.Res, exec)
	}
	if exec != b {
		if cb.Recompile {
			last.hb = hb
		}
		last.plan = exec
		if ip.last == nil {
			ip.last = map[*hop.Block]built{}
		}
		ip.last[cb] = last
	}
	return ip.runInstrs(exec)
}

// processNodeFailures delivers injected node failures that are due at the
// current simulated time: each one shrinks the live cluster by a node and
// hands the adapter a container-loss trigger so the plan is re-optimized
// for the reduced capacity. Losing the last node aborts with
// ErrClusterLost.
func (ip *Interp) processNodeFailures(b *lop.Block) error {
	if ip.Faults == nil {
		return nil
	}
	for _, nf := range ip.Faults.NodeFailuresThrough(ip.SimTime) {
		if ip.CC.Nodes <= 1 {
			return fmt.Errorf("rt: node %d failed at t=%.1fs: %w", nf.Node, nf.At, ErrClusterLost)
		}
		ip.CC.Nodes--
		ip.Est.CC = ip.CC
		ip.Stats.NodeFailures++
		ip.Trace.Instant(obs.LayerCluster, "node.fail",
			obs.A("node", nf.Node), obs.A("at", nf.At), obs.A("nodes_left", ip.CC.Nodes))
		// Force re-selection of subsequent blocks against the smaller
		// cluster even if the adapter keeps the resource configuration.
		ip.resChanged = true
		if ip.Adapter != nil {
			ip.adapt(b, TriggerContainerLoss)
		}
	}
	return nil
}

// adapt consults the adapter and applies its decision; it reports whether
// the resources changed.
func (ip *Interp) adapt(b *lop.Block, trig Trigger) bool {
	ctx := &AdaptContext{
		Plan:       ip.plan,
		Block:      b,
		Res:        ip.Res.Clone(),
		Vars:       liveVars(ip.Vars),
		DirtyBytes: ip.State.DirtyBytes(),
		Compiler:   ip.Compiler,
		Trigger:    trig,
		CC:         ip.CC,
	}
	dec := ip.Adapter.Adapt(ctx)
	if dec == nil {
		return false
	}
	ip.SimTime += dec.ExtraTime
	if dec.Migrate {
		ip.Stats.Migrations++
		// Materialize the runtime state on the DFS (paper §4.1): all
		// dirty variables plus the new resource configuration; the new
		// container restores lazily through its buffer pool.
		ip.exportState(dec.NewRes)
		ip.State.FlushAll()
		ip.State.SetBudget(ip.CC.OpBudget(dec.NewRes.CP))
	}
	changed := !dec.NewRes.Equal(ip.Res)
	ip.Res = dec.NewRes.Clone()
	ip.resChanged = ip.resChanged || changed
	return changed
}

// StatePrefix is the DFS directory receiving migrated AM state.
const StatePrefix = "/system/am_state/"

// exportState writes the live matrix variables and the new configuration
// marker to the DFS, making the migration hand-off observable.
func (ip *Interp) exportState(newRes conf.Resources) {
	for name, v := range ip.Vars {
		if !v.Matrix {
			continue
		}
		path := StatePrefix + name
		if ip.Mode == ModeValue && v.Mat != nil {
			ip.FS.PutMatrix(path, v.Mat)
		} else {
			ip.FS.PutDescriptor(path, v.Rows, v.Cols, v.NNZ, hdfs.BinaryBlock)
		}
	}
	ip.FS.PutDescriptor(StatePrefix+"_config_"+newRes.String(), 1, 1, 1, hdfs.BinaryBlock)
}

// runInstrs evaluates the block DAG, back-patches runtime sizes into hops
// whose dimensions were data dependent (e.g. table outputs), and then
// charges instruction times from the resolved sizes.
func (ip *Interp) runInstrs(b *lop.Block) error {
	if b.HopBlock == nil {
		return nil
	}
	// Evaluate roots first: transient writes bind variables, persistent
	// writes hit the DFS, prints stream to Out, stop aborts.
	env := newEnv(ip, b.HopBlock.Order)
	for _, root := range b.HopBlock.Roots {
		if _, err := env.eval(root); err != nil {
			return err
		}
	}
	// Resolve remaining unknown dimensions from the computed values so the
	// performance model charges actual sizes, not worst-case infinities.
	for i, h := range b.HopBlock.Order {
		if h.DataType != hop.Matrix || h.DimsKnown() {
			continue
		}
		if v := env.vals[i]; v != nil && v.Matrix {
			hop.UpdateFromRuntime(h, v.Rows, v.Cols, v.NNZ)
		}
	}

	evict0 := ip.State.EvictionIO()
	cores := b.HopBlock.OpCores(ip.Res.Cores())
	traced := ip.Trace.SpansEnabled()
	m := ip.Trace.Metrics()
	for _, in := range b.Instrs {
		ip.Stats.Instructions++
		start := ip.SimTime
		if in.Kind == lop.InstrCP {
			dt := ip.Est.CPInstrTime(in.Hop, ip.State, b.JobOf, cores)
			ip.SimTime += dt
			if traced {
				ip.Trace.Complete(obs.LayerRuntime, in.Label(), start, dt)
			}
			m.Observe("rt.cp_instr_seconds", dt)
		} else {
			ip.Stats.MRJobs++
			spec, par, bd := ip.Est.MRJobTime(in.Job, b, ip.Res, ip.State)
			faults := ip.Faults != nil && ip.Faults.TaskFaultsEnabled()
			var rep mr.TaskReport
			if faults {
				spec.Name = in.Job.Name()
				var err error
				bd, rep, err = mr.EstimateTimeUnderFaultsTraced(ip.Est.EffectiveCluster(),
					spec, par, bd, ip.Faults, ip.Policy, ip.Trace, start)
				if err != nil {
					return fmt.Errorf("rt: %w", err)
				}
				ip.Stats.TaskRetries += rep.Retries
				ip.Stats.Stragglers += rep.Stragglers
				ip.Stats.Speculated += rep.Speculated
				ip.Stats.RecoverySeconds += bd.Recovery
			}
			dt := bd.Total()
			ip.SimTime += dt
			if traced {
				args := []obs.Arg{obs.A("maps", spec.NumMaps), obs.A("reducers", spec.NumReducers),
					obs.A("retries", rep.Retries), obs.A("stragglers", rep.Stragglers), obs.A("speculated", rep.Speculated)}
				if !faults {
					args = args[:2]
				}
				ip.Trace.Complete(obs.LayerRuntime, in.Label(), start, dt, args...)
				ip.traceJobPhases(start, bd)
			}
			m.Observe("rt.mr_job_seconds", dt)
		}
	}
	ip.SimTime += ip.Est.EvictionTime(ip.State.EvictionIO() - evict0)
	return nil
}

// traceJobPhases emits the MR phase breakdown as back-to-back cluster-layer
// spans under the job's runtime span, in the order of the analytic model.
func (ip *Interp) traceJobPhases(start float64, bd mr.TimeBreakdown) {
	t := start
	phase := func(name string, d float64) {
		if d <= 0 {
			return
		}
		ip.Trace.Complete(obs.LayerCluster, name, t, d)
		t += d
	}
	phase("job.latency", bd.JobLatency)
	phase("task.launch", bd.TaskLatency)
	phase("export", bd.Export)
	phase("map.read", bd.MapRead)
	phase("broadcast", bd.Broadcast)
	phase("map.compute", bd.MapCompute)
	phase("map.write", bd.MapWrite)
	phase("shuffle", bd.Shuffle)
	phase("reduce.compute", bd.ReduceCompute)
	phase("reduce.write", bd.ReduceWrite)
	phase("recovery", bd.Recovery)
}
