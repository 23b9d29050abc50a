// Package adapt implements runtime resource adaptation (paper §4): when
// dynamic recompilation of a block still spawns MR jobs (sizes have become
// known and the initial configuration is off), the re-optimization scope is
// expanded to the enclosing outer loop through the end of the call context,
// the core resource optimizer is re-run against the now-known metadata, and
// AM runtime migration is performed when the cost benefit amortizes the
// migration costs.
package adapt

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hop"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/perf"
	"elasticml/internal/rt"
	"elasticml/internal/yarn"
)

// Stats reports adaptation activity.
type Stats struct {
	// Reoptimizations counts resource re-optimization runs.
	Reoptimizations int
	// ReoptReuses counts the re-optimizations answered by the kept last
	// search instead of a fresh one (included in Reoptimizations).
	ReoptReuses int
	// ScopeRebuilds counts the consults that rebuilt the scope program
	// from source; the others reused the program of the last rebuild.
	ScopeRebuilds int
	// ContainerLossReopts counts re-optimizations triggered by node
	// failures (graceful degradation to a smaller cluster).
	ContainerLossReopts int
	// Migrations counts AM runtime migrations.
	Migrations int
	// MigrationTime is the cumulative charged migration cost (seconds of
	// simulated time).
	MigrationTime float64
	// ChainLength is the length of the AM process chain (paper §4.1: the
	// chain of containers is rolled in when the program finishes).
	ChainLength int
}

// Adapter implements rt.Adapter using the resource optimizer.
type Adapter struct {
	CC conf.Cluster
	// Opt configures the re-optimization runs (grids, pruning, workers,
	// and the cluster load of §6 "Cluster-Utilization-Based Adaptation").
	Opt opt.Options
	// RM, when set, backs migrations with real container allocations (AM
	// process chaining).
	RM *yarn.ResourceManager
	// OptCharge is the simulated time, in seconds, charged per
	// re-optimization (New sets DefaultOptCharge). It is a fixed figure,
	// not the measured search time, so a run's simulated time depends on
	// its inputs alone.
	OptCharge float64
	// Trace, when non-nil, receives one adapt-layer span per re-optimization
	// carrying the cost/benefit breakdown and the decision, and is propagated
	// to the re-optimization runs.
	Trace *obs.Tracer

	Stats Stats
	chain []yarn.Container
	// scopes holds, per scope start, what a rebuild of the scope reads.
	scopes map[*hop.Block]scopeFacts
	kept   rebuild // answers consults while what it read repeats
	last   search  // answers consults while its inputs repeat
	meta   []byte  // scratch: the consult's live-in metadata
}

// DefaultOptCharge is the simulated seconds New charges per
// re-optimization.
const DefaultOptCharge = 0.1

// New returns an adapter with the paper's defaults.
func New(cc conf.Cluster) *Adapter {
	return &Adapter{CC: cc, Opt: opt.DefaultOptions(), OptCharge: DefaultOptCharge, scopes: map[*hop.Block]scopeFacts{}}
}

var _ rt.Adapter = (*Adapter)(nil)

// Adapt runs steps (1)-(4) of Figure 6: determine the re-optimization
// scope, re-optimize resources, decide on adaptation, and (notionally)
// migrate. The returned decision carries the new configuration and the
// charged overheads; the interpreter performs the state flush.
func (a *Adapter) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	scopeBlocks := scope(ctx)
	if len(scopeBlocks) == 0 {
		return nil
	}
	scopeProg, progKey, err := a.scopeProgram(ctx, scopeBlocks)
	if err != nil || scopeProg.NumLeaf == 0 {
		return nil
	}
	// Re-optimize against the interpreter's cluster view: after node
	// failures it is smaller than the configuration the adapter was built
	// for, and the new R* must fit the surviving capacity.
	cc := a.CC
	if ctx.CC.Nodes > 0 {
		cc = ctx.CC
	}
	global, local, reused := a.reoptimize(scopeProg, progKey, ctx.Res.CP, cc, a.Opt)
	a.Stats.Reoptimizations++
	m := a.Trace.Metrics()
	m.Add("adapt.reoptimizations", 1)
	if reused {
		a.Stats.ReoptReuses++
		m.Add("adapt.reopt_reuses", 1)
	}
	if ctx.Trigger == rt.TriggerContainerLoss {
		a.Stats.ContainerLossReopts++
		m.Add("adapt.container_loss_reopts", 1)
	}
	if global == nil || local == nil {
		return nil
	}

	dec := &rt.AdaptDecision{ExtraTime: a.OptCharge}
	// Migration costs: export of dirty live variables plus the latency of
	// obtaining a new container (paper §4.2).
	migCost := perf.WriteTime(ctx.DirtyBytes, 1) + perf.ContainerAllocLatency
	benefit := local.Cost - global.Cost // ΔC >= 0

	// Growing the CP requires migration; shrinking or MR-only changes are
	// free ("adjusting the memory configuration of stateless jobs or
	// reducing the CP AM memory are trivial").
	needsMigration := global.Res.CP > ctx.Res.CP
	// Unless migrating or shrinking, continue in the current container with
	// the locally optimal configuration (always update MR resources). A
	// migration must amortize: ΔC > C_M.
	decision, res := "keep-local", local.Res
	switch {
	case needsMigration && benefit > migCost:
		decision, res = "migrate", global.Res
		dec.Migrate = true
		dec.ExtraTime += migCost
		a.Stats.Migrations++
		a.Stats.MigrationTime += migCost
		m.Add("adapt.migrations", 1)
		a.migrateContainer(res.CP)
	case !needsMigration && global.Res.CP != ctx.Res.CP:
		// CP shrink (or equal): adopt the global optimum without cost.
		decision, res = "adopt-global", global.Res
	}
	dec.NewRes = mapScopeResources(ctx, scopeProg, res)
	a.traceDecision(ctx, dec, scopeProg.NumLeaf, global, local, migCost, benefit, decision, reused)
	return dec
}

// traceDecision emits the adapt-layer span for one re-optimization. The span
// starts at the current simulated time and lasts the charged extra time — the
// interpreter advances its clock by the same amount right after Adapt
// returns, so the span covers exactly the adaptation stall. A reused
// re-optimization ran no search, so no opt.grid-search span or opt.*
// counter precedes its span.
func (a *Adapter) traceDecision(ctx *rt.AdaptContext, dec *rt.AdaptDecision, scopeLeaves int,
	global, local *opt.Result, migCost, benefit float64, decision string, reused bool) {
	if !a.Trace.SpansEnabled() {
		return
	}
	a.Trace.CompleteNow(obs.LayerAdapt, "adapt.reoptimize", dec.ExtraTime,
		obs.A("trigger", ctx.Trigger.String()),
		obs.A("decision", decision),
		obs.A("reused", reused),
		obs.A("scope_leaves", scopeLeaves),
		obs.A("global_cost", global.Cost),
		obs.A("local_cost", local.Cost),
		obs.A("benefit", benefit),
		obs.A("mig_cost", migCost),
		obs.A("dirty_bytes", int64(ctx.DirtyBytes)),
		obs.A("old_cp", ctx.Res.CP.String()),
		obs.A("new_cp", dec.NewRes.CP.String()))
}

// scopeFacts is what a rebuild of one scope reads besides the compiler:
// the metadata of the variables live at the scope's start, and the file
// system when a statement calls read(...).
type scopeFacts struct {
	liveIn     []string
	readsFiles bool
}

// rebuild is one scope rebuild: what it read and what it built.
type rebuild struct {
	first *hop.Block // the scope's first block, which names the scope
	meta  []byte     // appendMeta of the scope's live-in variables
	prog  *hop.Program
	key   []byte // hop.AppendKey of prog
}

// scopeProgram returns the rebuilt scope program and its hop.AppendKey.
// A rebuild is a function of the scope, the compiler and the metadata of
// the variables live at the scope's start (hop.LiveIn), so while those
// repeat the kept rebuild answers and nothing is rebuilt or encoded, and
// a rebuild reads those variables alone. A scope that reads a file always
// rebuilds, since the compiler stats it.
func (a *Adapter) scopeProgram(ctx *rt.AdaptContext, blocks []*hop.Block) (*hop.Program, []byte, error) {
	first := blocks[0]
	facts, ok := a.scopes[first]
	if !ok {
		srcs, err := hop.Sources(blocks)
		if err != nil {
			return nil, nil, err
		}
		facts = scopeFacts{liveIn: hop.LiveIn(srcs), readsFiles: dml.Calls(srcs, "read")}
		a.scopes[first] = facts
	}
	k := &a.kept
	a.meta = appendMeta(a.meta[:0], ctx.Vars, facts.liveIn)
	if !facts.readsFiles && k.prog != nil && k.first == first && k.prog.Compiler() == ctx.Compiler && bytes.Equal(a.meta, k.meta) {
		return k.prog, k.key, nil
	}
	meta := make(hop.SymTab, len(facts.liveIn))
	for _, name := range facts.liveIn {
		if m, ok := ctx.Vars.Meta(name); ok {
			meta[name] = m
		}
	}
	prog, err := ctx.Compiler.RebuildScope(blocks, meta)
	if err != nil {
		*k = rebuild{}
		return nil, nil, err
	}
	a.Stats.ScopeRebuilds++
	k.meta, a.meta = a.meta, k.meta
	k.first, k.prog, k.key = first, prog, hop.AppendKey(nil, prog)
	return prog, k.key, nil
}

// appendMeta appends what vars holds for each of names: whether the name
// is bound and, if so, every VarMeta field, floats by their bits.
func appendMeta(dst []byte, vars hop.Vars, names []string) []byte {
	bit := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	for _, name := range names {
		m, ok := vars.Meta(name)
		if !ok {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1, bit(m.IsMatrix), bit(m.Known), bit(m.IsStr))
		dst = binary.AppendVarint(dst, m.Rows)
		dst = binary.AppendVarint(dst, m.Cols)
		dst = binary.AppendVarint(dst, m.NNZ)
		dst = binary.AppendUvarint(dst, math.Float64bits(m.Val))
		dst = binary.AppendUvarint(dst, uint64(len(m.Str)))
		dst = append(dst, m.Str...)
	}
	return dst
}

// search is one re-optimization: what it was asked and what it answered.
type search struct {
	prog          []byte // hop.AppendKey of the rebuilt scope program
	cp            conf.Bytes
	cc            conf.Cluster
	opts          []byte // opt.AppendOptionsKey of the options
	global, local *opt.Result
}

// reoptimize runs OptimizeWithCurrent, or answers from the last search when
// that was asked exactly the same: the rebuilt scope program (key is its
// hop.AppendKey), the current CP, the cluster view and the
// result-relevant options determine the result.
func (a *Adapter) reoptimize(prog *hop.Program, key []byte, cp conf.Bytes, cc conf.Cluster, opts opt.Options) (global, local *opt.Result, reused bool) {
	optsKey := opt.AppendOptionsKey(nil, opts)
	l := &a.last
	if cp == l.cp && cc == l.cc && bytes.Equal(key, l.prog) && bytes.Equal(optsKey, l.opts) {
		return l.global, l.local, true
	}
	o := &opt.Optimizer{CC: cc, Opts: opts, Trace: a.Trace}
	global, local = o.OptimizeWithCurrent(prog, cp)
	*l = search{prog: key, cp: cp, cc: cc, opts: optsKey, global: global, local: local}
	return global, local, false
}

// migrateContainer performs the AM process chaining against the RM when
// one is attached: the new container is allocated while the old one stays
// alive until program completion.
func (a *Adapter) migrateContainer(cp conf.Bytes) {
	a.Stats.ChainLength++
	if a.RM == nil {
		return
	}
	if c, err := a.RM.Allocate(a.CC.ContainerSize(cp)); err == nil {
		a.chain = append(a.chain, c)
	}
}

// Release rolls in the AM process chain in reverse order (program end).
func (a *Adapter) Release() {
	for i := len(a.chain) - 1; i >= 0; i-- {
		_ = a.RM.Release(a.chain[i].ID)
	}
	a.chain = nil
}

// scope determines the re-optimization scope: from the current position
// expanded to the outermost enclosing loop of the current call context,
// through the end of the top-level block list (paper §4.2's heuristic —
// covering iterative scripts prevents repeated migrations). The outermost
// enclosing loop, or the block itself outside loops, lies in the block's
// top-level ancestor, so the scope starts there.
func scope(ctx *rt.AdaptContext) []*hop.Block {
	top := ctx.Block.HopBlock
	for top.Parent != nil {
		top = top.Parent
	}
	blocks := ctx.Plan.HopProgram.Blocks
	if i := slices.Index(blocks, top); i >= 0 {
		return blocks[i:]
	}
	return blocks
}

// mapScopeResources lifts a scope-program resource vector back onto the
// full program's block indexing: scope leaves are matched to original
// leaves by the statement block they were built from; unmatched original
// blocks keep their current assignment.
func mapScopeResources(ctx *rt.AdaptContext, scopeProg *hop.Program, res conf.Resources) conf.Resources {
	out := ctx.Res.Clone()
	out.CP = res.CP
	if len(out.MR) < ctx.Plan.HopProgram.NumLeaf {
		grown := conf.NewResources(out.CP, ctx.Res.MRFor(0), ctx.Plan.HopProgram.NumLeaf)
		copy(grown.MR, out.MR)
		out = grown
	}
	origBySrc := map[*dml.StatementBlock]int{}
	for _, lb := range ctx.Plan.HopProgram.LeafBlocks() {
		origBySrc[lb.Src] = lb.Index
	}
	for _, sb := range scopeProg.LeafBlocks() {
		if oi, ok := origBySrc[sb.Src]; ok && oi < len(out.MR) {
			out.MR[oi] = res.MRFor(sb.Index)
		}
	}
	return out
}
