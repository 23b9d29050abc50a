package lop

import (
	"fmt"
	"math"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hop"
)

// Select compiles a HOP program into an executable runtime plan under the
// given cluster configuration and resource vector. This is the
// memory-sensitive heart of the compiler (paper §2.1): an operation runs in
// CP if its memory estimate fits the CP budget (CPBudgetRatio of the CP
// heap); map-side physical operators are chosen if their broadcast operand
// fits the MR task budget; MR operators are packed into a minimal number of
// jobs under the same budget.
func Select(p *hop.Program, cc conf.Cluster, res conf.Resources) *Plan {
	return newSelector(cc, res, nil).program(p)
}

// SelectBlock recompiles a single generic block (dynamic recompilation)
// into the plan Select gives it: in a parfor body, under the per-worker CP
// budget. prev is a plan an earlier SelectBlock returned, or nil: the
// selection overwrites it and its Instrs and JobOf storage and returns it,
// so the caller must hold nothing of it past this call.
func SelectBlock(b *hop.Block, cc conf.Cluster, res conf.Resources, prev *Block) *Block {
	lb, _ := newSelector(cc, res, nil).generic(b, prev)
	return lb
}

// Span is the half-open interval [Lo, Hi) of CP or MR budgets.
type Span struct{ Lo, Hi conf.Bytes }

// Contains reports whether the budget lies in the span.
func (sp Span) Contains(budget conf.Bytes) bool { return sp.Lo <= budget && budget < sp.Hi }

// Region is the set of budgets under which selection produces the same
// plan for a block: its CP operation budget in CP (in a parfor body, the
// per-worker budget) and its MR task budget in MR. Every comparison
// selection makes is against one of the two, so any pair of budgets in the
// two spans selects the same plan.
type Region struct{ CP, MR Span }

// budget is one budget selection compares against. fits is selection's
// only access to it: the test x <= b, which narrows span to the budgets
// under which every test made so far resolves the same way.
type budget struct {
	b    conf.Bytes
	span Span
}

func (bu *budget) fits(x conf.Bytes) bool {
	if x <= bu.b {
		bu.span.Lo = max(bu.span.Lo, x)
		return true
	}
	bu.span.Hi = min(bu.span.Hi, x)
	return false
}

// everywhere is the span before any comparison.
var everywhere = Span{Lo: 0, Hi: math.MaxInt64}

func newSelector(cc conf.Cluster, res conf.Resources, tab *Table) *selector {
	return &selector{cc: cc, res: res, whole: cc.OpBudget(res.CP), cores: res.Cores(), tab: tab}
}

type selector struct {
	cc  conf.Cluster
	res conf.Resources
	// whole is the CP operation budget of res; cp is the one the block
	// being selected sees, which a parfor body divides (see workerBudget).
	whole conf.Bytes
	cp    budget
	cores int
	tab   *Table
}

func (s *selector) program(p *hop.Program) *Plan {
	plan := &Plan{Resources: s.res.Clone(), HopProgram: p, Blocks: make([]*Block, p.NumLeaf)}
	s.blocks(p.Blocks, plan.Blocks)
	return plan
}

// MultiThreadMemFactor is the per-extra-core inflation of operation memory
// estimates for multi-threaded CP operations (§6: "usually the degree of
// parallelism affects memory requirements").
const MultiThreadMemFactor = 0.15

// effectiveOpMem inflates an operation memory estimate for multi-threaded
// execution (per-thread partial results and buffers).
func (s *selector) effectiveOpMem(m conf.Bytes) conf.Bytes {
	if s.cores <= 1 || hop.InfiniteMem(m) {
		return m
	}
	f := 1 + MultiThreadMemFactor*float64(s.cores-1)
	if f > 2 {
		f = 2
	}
	return conf.Bytes(float64(m) * f)
}

// blocks selects the plan of every generic block under hbs into out, by
// hop.Block.Index.
func (s *selector) blocks(hbs []*hop.Block, out []*Block) {
	for _, hb := range hbs {
		if hb.Kind == dml.GenericBlock {
			out[hb.Index], _ = s.generic(hb, nil)
			continue
		}
		s.blocks(hb.Then, out)
		s.blocks(hb.Else, out)
		s.blocks(hb.Body, out)
	}
}

// workerBudget divides the budget b for every parfor loop among p and its
// ancestors, outermost first, by the loop's worker count: concurrent
// workers multiply the number of live intermediates, so each sees a
// proportionally smaller budget ([6]: "the degree of parallelism affects
// the number of intermediates"). A loop of unknown trip count is taken to
// have a worker per core; a parfor nested in another runs on one of its
// single-threaded workers (hop.Block.OpCores) and divides by nothing.
func workerBudget(b conf.Bytes, p *hop.Block, cores int) conf.Bytes {
	if p == nil {
		return b
	}
	b = workerBudget(b, p.Parent, cores)
	if !p.Parallel {
		return b
	}
	iters := p.KnownIters
	if iters <= 0 {
		iters = int64(cores)
	}
	return conf.Bytes(float64(b) / float64(hop.ParforWorkers(p.OpCores(cores), iters)))
}

// generic runs operator selection and piggybacking over one block DAG,
// scanning the order the compiler linearized, and returns the region of
// budgets that select the same plan. With a table, a plan already selected
// for a region holding the block's budgets is returned instead. A non-nil
// into is overwritten with the plan, reusing its storage.
func (s *selector) generic(hb *hop.Block, into *Block) (*Block, Region) {
	if hb.Order == nil && len(hb.Roots) > 0 {
		panic(fmt.Sprintf("lop: generic block at lines %d-%d has roots but no linearized order; "+
			"blocks must come from hop.Compiler's Compile, RebuildScope or RecompileGeneric", hb.FirstLine, hb.LastLine))
	}
	mr := budget{b: s.cc.OpBudget(s.res.MRFor(hb.Index)), span: everywhere}
	s.cp = budget{b: s.whole, span: everywhere}
	if s.cores > 1 {
		s.cp.b = workerBudget(s.whole, hb.Parent, s.cores)
	}
	if b, reg, ok := s.tab.lookup(hb, s.cores, s.cp.b, mr.b); ok {
		return b, reg
	}
	b := into
	if b == nil {
		b = new(Block)
	}
	jobOf := b.JobOf[:0]
	if n := len(hb.Order); cap(jobOf) < n {
		jobOf = make([]*MRJob, n)
	} else {
		jobOf = jobOf[:n]
		clear(jobOf)
	}
	// A hop that executes emits at most one instruction. Counting them,
	// not the block's hops, keeps a reused block's instructions where
	// they fit: literals and reads emit none.
	instrs, n := b.Instrs[:0], 0
	for _, h := range hb.Order {
		if executes(h) {
			n++
		}
	}
	if cap(instrs) < n {
		instrs = make([]Instr, 0, n)
	}
	*b = Block{HopBlock: hb, JobOf: jobOf, Instrs: instrs}
	chains := s.detectChains(hb, &mr)

	var openJob *MRJob
	closeJob := func() {
		if openJob != nil {
			b.Instrs = append(b.Instrs, Instr{Kind: InstrMR, Job: openJob})
			openJob = nil
		}
	}

	for _, h := range hb.Order {
		var ci chainInfo
		if chains != nil {
			ci = chains[h.Pos]
		}
		if ci.inner {
			continue // consumed by a MapMMChain
		}
		if !executes(h) {
			continue
		}
		// Scalar-only and CP-forced operations run in the control program.
		if s.runsInCP(h) {
			// A CP instruction consuming an open job's output forces the
			// job to be emitted first.
			if openJob != nil && consumesFromJob(h, b.JobOf, openJob) {
				closeJob()
			}
			b.Instrs = append(b.Instrs, Instr{Kind: InstrCP, Hop: h})
			continue
		}
		op := s.physical(h, &mr, ci)
		if openJob == nil || !s.canMerge(openJob, op, b.JobOf, &mr) {
			closeJob()
			openJob = &MRJob{}
		}
		s.addToJob(openJob, op, b.JobOf)
	}
	closeJob()
	reg := Region{CP: s.cp.span, MR: mr.span}
	s.tab.insert(hb, s.cores, reg, b)
	return b, reg
}

// executes reports whether a hop corresponds to a runtime instruction.
func executes(h *hop.Hop) bool {
	switch h.Kind {
	case hop.KindLit, hop.KindTRead, hop.KindRead:
		return false
	}
	return true
}

// runsInCP applies the execution-type heuristic: in-memory CP operations
// are assumed cheaper than their distributed counterparts, so an operation
// runs in CP whenever its memory estimate fits the CP budget. The budget
// test is recorded in the CP span.
func (s *selector) runsInCP(h *hop.Hop) bool {
	switch h.Kind {
	case hop.KindTWrite, hop.KindPrint, hop.KindStop, hop.KindWrite:
		return true
	case hop.KindSolve, hop.KindCast:
		// CP-only operators (no distributed implementation).
		return true
	}
	if h.IsScalar() && !hasMatrixInput(h) {
		return true
	}
	return !hop.InfiniteMem(h.OpMem) && s.cp.fits(s.effectiveOpMem(h.OpMem))
}

func hasMatrixInput(h *hop.Hop) bool {
	for _, in := range h.Inputs {
		if in != nil && in.DataType == hop.Matrix {
			return true
		}
	}
	return false
}

func consumesFromJob(h *hop.Hop, jobOf []*MRJob, job *MRJob) bool {
	for _, in := range h.Inputs {
		if in != nil && jobOf[in.Pos] == job {
			return true
		}
	}
	return false
}

// chainInfo is one hop's part in a fused MapMMChain: on the chain head
// (which scans X, its first input), the broadcast vector v and optional
// weight vector w; on a hop the chain absorbs, inner.
type chainInfo struct {
	v, w  *hop.Hop
	inner bool
}

// detectChains marks the inner hops of t(X) %*% (X %*% v) and
// t(X) %*% (w * (X %*% v)) patterns that will fuse into a single
// MapMMChain operator (paper Table 4), and records per chain head the
// fused operands. The result is indexed by Pos, and nil when the block has
// no chain.
func (s *selector) detectChains(hb *hop.Block, mr *budget) []chainInfo {
	var chains []chainInfo
	for _, h := range hb.Order {
		if h.Kind != hop.KindMatMul || !h.TransA || s.runsInCP(h) {
			continue
		}
		x, right := h.Inputs[0], h.Inputs[1]
		// Unwrap optional weighting w * (X %*% v).
		inner := right
		var w *hop.Hop
		if inner.Kind == hop.KindBinary && inner.Op == "*" {
			a, bb := inner.Inputs[0], inner.Inputs[1]
			if a.Kind == hop.KindMatMul {
				inner, w = a, bb
			} else if bb.Kind == hop.KindMatMul {
				inner, w = bb, a
			}
		}
		if inner.Kind != hop.KindMatMul || inner.TransA || inner.Inputs[0] != x {
			continue
		}
		v := inner.Inputs[1]
		// The chain is applicable to vector shapes whose broadcasts fit.
		bcast := v.OutMem
		if w != nil {
			bcast += w.OutMem
		}
		if hop.InfiniteMem(bcast) || !mr.fits(bcast) {
			continue
		}
		// Intermediates must be exclusively consumed by the chain.
		if len(hb.Users[inner.Pos]) != 1 {
			continue
		}
		if w != nil && len(hb.Users[right.Pos]) != 1 {
			continue
		}
		if chains == nil {
			chains = make([]chainInfo, len(hb.Order))
		}
		chains[inner.Pos].inner = true
		if w != nil {
			chains[right.Pos].inner = true
		}
		chains[h.Pos].v, chains[h.Pos].w = v, w
	}
	return chains
}
