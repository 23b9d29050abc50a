package cost

import (
	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/mr"
	"elasticml/internal/perf"
)

// Estimator computes time estimates C(P, R_P, cc) for runtime plans.
type Estimator struct {
	CC conf.Cluster
	// EvictionWeight scales the IO charged for buffer-pool evictions. The
	// execution simulator uses 1.0 (full cost); the optimizer's cost model
	// uses a partial weight — the paper notes evictions are "only
	// partially considered by our cost model", a documented source of
	// slight suboptimality on sparse data.
	EvictionWeight float64
	// AvailableFraction models cluster load for utilization-based
	// adaptation (§6): the fraction of worker nodes effectively available
	// to this application's MR jobs. 0 (zero value) and 1 both mean an
	// idle cluster.
	AvailableFraction float64
	// Invocations counts costings asked of the model for the
	// optimization-overhead statistics (Table 3): every ProgramCost and
	// BlockCost call, and every ask a search answers from a Cell in
	// their place, which the search counts here.
	Invocations int
	// Hook, when set, receives every per-instruction charge made through
	// ProgramCost/BlockCost, keyed by the instruction label — the
	// predicted side of the predicted-vs-simulated per-operator cost
	// table. Left nil on the optimizer's hot path.
	Hook func(label string, seconds float64)

	// state is the variable state ProgramCost and BlockCost reset and
	// reuse, so that a costing allocates no table of its own. Like
	// Invocations, it confines an Estimator to one goroutine at a time.
	state VarState
	// cell is the cell the costing under way records, or nil.
	cell *Cell
}

// EffectiveCluster returns the cluster configuration with the node count
// shrunk by the available fraction — the cluster the MR phase model is
// charged against. Exported so the execution simulator can feed the same
// cluster view into the fault-aware task-attempt model.
func (e *Estimator) EffectiveCluster() conf.Cluster { return e.effectiveCluster() }

// effectiveCluster shrinks the node count by the available fraction.
func (e *Estimator) effectiveCluster() conf.Cluster {
	cc := e.CC
	if e.AvailableFraction > 0 && e.AvailableFraction < 1 {
		n := int(float64(cc.Nodes) * e.AvailableFraction)
		if n < 1 {
			n = 1
		}
		cc.Nodes = n
	}
	return cc
}

// DefaultIters is the trip count assumed for a loop whose iteration count
// is unknown, by the cost model and by the execution simulator alike: "a
// constant which at least reflects that the body is executed multiple
// times" (paper §3.1), matching the evaluation workloads' convergence caps
// (maxi=5).
const DefaultIters = 5

// NewEstimator returns an estimator for cc. Every charge reads the one
// performance model, package perf.
func NewEstimator(cc conf.Cluster) *Estimator {
	return &Estimator{CC: cc, EvictionWeight: PartialEvictionWeight}
}

// PartialEvictionWeight is the optimizer cost model's under-accounting of
// eviction IO (full weight is 1.0).
const PartialEvictionWeight = 0.5

// ProgramCost estimates the end-to-end execution time of a plan.
func (e *Estimator) ProgramCost(p *lop.Plan) float64 {
	e.Invocations++
	state := e.newState(p.Resources)
	return e.blocks(p, p.HopProgram.Blocks, state)
}

// BlockCost estimates the cost of a single block under the given resource
// vector with a cold variable state (used by the per-block memoization of
// the enumeration algorithm).
func (e *Estimator) BlockCost(b *lop.Block, res conf.Resources) float64 {
	e.Invocations++
	state := e.newState(res)
	return e.generic(b, res, state)
}

func (e *Estimator) newState(res conf.Resources) *VarState {
	s := &e.state
	*s = VarState{binds: s.binds[:0], entries: s.entries[:0], budget: e.budget(res)}
	e.startCell(res, s)
	return s
}

// blocks charges the blocks of p's program under hbs: a generic block's
// plan is p.Blocks[hb.Index].
func (e *Estimator) blocks(p *lop.Plan, hbs []*hop.Block, state *VarState) float64 {
	var t float64
	for _, hb := range hbs {
		t += e.block(p, hb, state)
	}
	return t
}

func (e *Estimator) block(p *lop.Plan, hb *hop.Block, state *VarState) float64 {
	switch hb.Kind {
	case dml.GenericBlock:
		return e.generic(p.Blocks[hb.Index], p.Resources, state)
	case dml.IfBlockKind:
		// Weighted sum of branch aggregates.
		thenState := state.Clone()
		tThen := e.blocks(p, hb.Then, thenState)
		// The else branch scans the original state in place: it is
		// replaced by the then-branch state below.
		tElse := e.blocks(p, hb.Else, state)
		// Continue with the then-branch state (conservative single path).
		*state = *thenState
		return 0.5*tThen + 0.5*tElse
	default: // while / for
		iters := hb.KnownIters
		if iters == 0 {
			return 0 // a loop of known zero trips runs nothing
		}
		if iters == hop.Unknown {
			iters = DefaultIters
		}
		// First iteration warms the buffer pool (inputs read once); the
		// remaining iterations run against the steady state.
		first := e.blocks(p, hb.Body, state)
		total := first
		if iters > 1 {
			steady := e.blocks(p, hb.Body, state)
			total = first + float64(iters-1)*steady
		}
		if hb.Parallel {
			// parfor: iterations run on concurrent single-threaded
			// workers; wall time divides by the worker count (extended
			// cost estimation for task-parallel programs, §8).
			total /= float64(hop.ParforWorkers(hb.OpCores(p.Resources.Cores()), iters))
		}
		return total
	}
}

// generic charges the instruction sequence of a generic block. Inside a
// parfor body each operation runs on one core.
func (e *Estimator) generic(b *lop.Block, res conf.Resources, state *VarState) float64 {
	evict0 := state.evictIO
	cores := b.HopBlock.OpCores(res.Cores())
	var t float64
	for _, in := range b.Instrs {
		var dt float64
		if in.Kind == lop.InstrCP {
			dt = e.CPInstrTime(in.Hop, state, b.JobOf, cores)
		} else {
			_, _, bd := e.MRJobTime(in.Job, b, res, state)
			dt = bd.Total()
		}
		if e.Hook != nil {
			e.Hook(in.Label(), dt)
		}
		t += dt
	}
	if e.EvictionWeight > 0 {
		t += e.EvictionTime(state.evictIO - evict0)
	}
	return t
}

// EvictionTime charges the buffer-pool evictions of one generic block, the
// bytes evicted while it ran. Evicted dirty pages are written out and
// re-read on next use; the re-read is already charged by EnsureInMemory,
// the write here, scaled by EvictionWeight.
func (e *Estimator) EvictionTime(evicted conf.Bytes) float64 {
	return perf.WriteTime(evicted, 1) * e.EvictionWeight
}

// CPInstrTime charges one in-memory operation: read IO for inputs not yet
// CP-resident, single-threaded compute, and write IO for persistent writes.
// It is exported for reuse by the execution simulator, which interleaves
// charging with actual interpretation. jobOf is the block's lop.Block.JobOf.
func (e *Estimator) CPInstrTime(h *hop.Hop, state *VarState, jobOf []*lop.MRJob, cores int) float64 {
	// Transient writes are logical bindings: no IO, no compute. Reads stay
	// lazy — the first operation that actually consumes the data pays.
	if h.Kind == hop.KindTWrite {
		src := h.Inputs[0]
		if src.DataType == hop.Matrix {
			dst := Key{Kind: KeyVar, Name: h.Name}
			if jobOf[src.Pos] != nil {
				state.PutOnHDFS(dst, trackedSize(src))
			} else if key, ok := keyOf(src); ok {
				state.Alias(dst, key, trackedSize(src))
			} else {
				// CP-computed intermediate: dirty in-memory value.
				state.PutInMemory(dst, trackedSize(src))
			}
		}
		return 0
	}
	var t float64
	for _, inp := range h.Inputs {
		if inp == nil || inp.DataType != hop.Matrix {
			continue
		}
		key, tracked := keyOf(inp)
		if !tracked {
			if jobOf[inp.Pos] != nil {
				key = jobOutKey(inp)
			} else {
				continue // CP intermediate, already in memory
			}
		}
		readBytes := state.EnsureInMemory(key, trackedSize(inp))
		t += perf.ReadTime(readBytes, 1)
	}
	// The CP container runs on one worker node: a degree of parallelism
	// above the node's physical cores cannot speed up compute (it only
	// over-subscribes the CPU), so the charged rate saturates there.
	if e.CC.CoresPerNode > 0 && cores > e.CC.CoresPerNode {
		cores = e.CC.CoresPerNode
	}
	t += perf.ComputeTime(Flops(h), cores)
	if h.Kind == hop.KindWrite {
		src := h.Inputs[0]
		if src.DataType == hop.Matrix && jobOf[src.Pos] == nil {
			// Values already HDFS-resident are renamed, not rewritten.
			key, tracked := keyOf(src)
			if !tracked || state.InMemory(key) {
				t += perf.WriteTime(trackedSize(src), 1)
			}
		}
	}
	return t
}

// MRJobTime assembles the job specification, applying the variable-state
// transitions (dirty-variable exports, HDFS materialization of consumed
// outputs) as a side effect, and charges the MR phase model. It returns the
// specification, the map-phase parallelism and the phase breakdown, so the
// execution simulator can layer the fault-aware task-attempt model
// (mr.EstimateTimeUnderFaultsTraced) on the same charge. The spec's Name is
// left empty: only the fault model reads it.
func (e *Estimator) MRJobTime(job *lop.MRJob, b *lop.Block, res conf.Resources, state *VarState) (mr.JobSpec, mr.Parallelism, mr.TimeBreakdown) {
	var spec mr.JobSpec
	taskHeap := res.MRFor(b.HopBlock.Index)

	// Scanned inputs: export dirty CP variables, then stream from HDFS.
	maxSplits := 1
	for _, si := range job.ScanInputs {
		key, tracked := keyOf(si)
		if !tracked {
			if p := b.JobOf[si.Pos]; p != nil && p != job {
				key = jobOutKey(si)
			} else {
				continue
			}
		}
		size := state.Size(key, trackedSize(si))
		spec.ExportInput += state.ExportBytes(key, size)
		spec.MapInput += size
		if n := splitsOf(size, e.CC.HDFSBlockSize); n > maxSplits {
			maxSplits = n
		}
	}
	spec.NumMaps = maxSplits

	shuffles := false
	for _, op := range job.Ops {
		f := Flops(op.Hop)
		for _, bc := range op.Broadcast {
			spec.BroadcastInput += trackedSize(bc)
		}
		if op.Shuffles {
			shuffles = true
			spec.ReduceFlops += f
			for _, inp := range op.Hop.Inputs {
				if inp != nil && inp.DataType == hop.Matrix {
					spec.ShuffleBytes += trackedSize(inp)
				}
			}
		} else {
			spec.MapFlops += f
		}
		// Outputs consumed outside this job are materialized on HDFS.
		if consumedOutside(op.Hop, job, b) {
			out := trackedSize(op.Hop)
			if op.Shuffles {
				spec.ReduceOutput += out
			} else {
				spec.MapOutput += out
			}
			state.PutOnHDFS(jobOutKey(op.Hop), out)
		}
	}
	if shuffles {
		spec.NumReducers = e.CC.Reducers
	}
	cc := e.effectiveCluster()
	par := mr.ComputeParallelism(cc, taskHeap, res.CP, spec.NumMaps)
	e.recordJob(b.HopBlock.Index, spec.NumMaps, par)
	return spec, par, mr.EstimateTimeAt(cc, spec, par)
}

func jobOutKey(h *hop.Hop) Key { return Key{Kind: KeyJob, ID: h.ID} }

// trackedSize returns the size used for state tracking and IO charging:
// unknown (worst-case infinite) estimates are clamped to a nominal size so
// a single unknown intermediate cannot dominate the program cost (blocks of
// unknowns are pruned from enumeration anyway, §3.4).
func trackedSize(h *hop.Hop) conf.Bytes {
	if hop.InfiniteMem(h.OutMem) {
		return conf.Bytes(unknownCells * 8)
	}
	return h.OutMem
}

// splitsOf returns the number of input splits of a file of the given size
// on disk, which is the number of map tasks of a job reading it.
func splitsOf(size, blockSize conf.Bytes) int {
	if blockSize <= 0 {
		return 1
	}
	n := int((size + blockSize - 1) / blockSize)
	if n < 1 {
		n = 1
	}
	return n
}

// consumedOutside reports whether a job-internal hop's output is needed by
// instructions outside the job (CP consumers, other jobs, or roots).
func consumedOutside(h *hop.Hop, job *lop.MRJob, b *lop.Block) bool {
	consumers := b.HopBlock.Users[h.Pos]
	if len(consumers) == 0 {
		return true // DAG root output
	}
	for _, c := range consumers {
		if b.JobOf[c.Pos] != job {
			return true
		}
	}
	return false
}
