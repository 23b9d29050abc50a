package hop

import (
	"fmt"
	"slices"

	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/obs"
)

// VarMeta is the compile-time knowledge about one live variable: matrix
// dimensions/non-zeros, or a scalar's (possibly known) constant value.
type VarMeta struct {
	IsMatrix        bool
	Rows, Cols, NNZ int64
	Known           bool // scalar value known at compile time
	Val             float64
	IsStr           bool
	Str             string
}

// SymTab maps variable names to their compile-time metadata.
type SymTab map[string]VarMeta

// Clone returns a copy of the symbol table.
func (s SymTab) Clone() SymTab {
	c := make(SymTab, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Compiler builds HOP programs. It carries the simulated DFS (for input
// metadata), the script's $ parameters, and the script it compiled, whose
// templates its scope rebuilds and recompiles re-size.
type Compiler struct {
	FS     *hdfs.FS
	Params map[string]interface{}
	// Trace, when non-nil, receives compile-layer spans (initial
	// compilation phases, dynamic recompilations, scope rebuilds).
	Trace  *obs.Tracer
	script *Script
	nextID int64
	// statementsOnly, set only by tests, makes every generic block build
	// from its statements, as it did before templates.
	statementsOnly bool
}

// NewCompiler returns a HOP compiler reading input metadata from fs and
// substituting the given $ parameters.
func NewCompiler(fs *hdfs.FS, params map[string]interface{}) *Compiler {
	return &Compiler{FS: fs, Params: params}
}

// Fork returns a compiler for one run of a program c built, over the
// run's own file system: it continues from c's ID counter without
// advancing it and shares c's script and its templates. So a run
// recompiles exactly as it would on c, and c stays as it was.
func (c *Compiler) Fork(fs *hdfs.FS) *Compiler {
	f := *c
	f.FS = fs
	return &f
}

func (c *Compiler) id() int64 {
	c.nextID++
	return c.nextID
}

// Compile builds the HOP program for a parsed script: user functions are
// inlined, statement blocks constructed, DAGs built with size propagation,
// constant folding, CSE, algebraic rewrites and branch removal applied, and
// leaf blocks indexed for the resource vector and linearized. The templates
// of its generic blocks belong to this compile's script alone (see
// CompileScript for a shared one).
func (c *Compiler) Compile(prog *dml.Program, source string) (*Program, error) {
	sp := c.Trace.Begin(obs.LayerCompile, "hop.compile")
	inl := c.Trace.Begin(obs.LayerCompile, "hop.inline-functions", obs.A("funcs", len(prog.Funcs)))
	s := newScript(prog, source, c.Trace)
	inl.End()
	return c.compile(s, sp)
}

// CompileScript builds the program of a script a Table parsed, as Compile
// does, re-sizing the templates earlier compiles of the script built.
func (c *Compiler) CompileScript(s *Script) (*Program, error) {
	return c.compile(s, c.Trace.Begin(obs.LayerCompile, "hop.compile"))
}

func (c *Compiler) compile(s *Script, sp *obs.Span) (*Program, error) {
	if s.err != nil {
		return nil, s.err
	}
	c.script = s
	meta := SymTab{}
	bld := c.Trace.Begin(obs.LayerCompile, "hop.build-dags", obs.A("stmt_blocks", len(s.blocks)))
	blocks, err := c.buildBlocks(s.blocks, meta)
	bld.End()
	if err != nil {
		return nil, err
	}
	rw := c.Trace.Begin(obs.LayerCompile, "hop.rewrite")
	pruneDeadWrites(blocks)
	p := c.program(blocks, s.source)
	rw.End()
	sp.End(obs.A("leaf_blocks", p.NumLeaf))
	c.Trace.Metrics().Add("compile.programs", 1)
	return p, nil
}

// RecompileGeneric recompiles a generic block against the live variables —
// the dynamic recompilation hook (paper §2.1/§4): at runtime, exact sizes
// of intermediates are known and propagated through the DAG before runtime
// plan regeneration. It re-sizes a copy of b's DAG (resize) and rebuilds
// the block from its statements only when that would change more than
// sizes; the rebuild looks up only the names in b.Reads. b is only read,
// and so is vars.
//
// prev is the block this call returned last time for the same b, or nil.
// The re-size writes into prev's storage and may return prev itself, so a
// recompiled block is valid only until the next recompile of b that is
// handed it: a caller that passes it on keeps nothing of it past then.
// Compile-time builds and one-off recompiles pass nil.
func (c *Compiler) RecompileGeneric(b *Block, vars Vars, prev *Block) (*Block, error) {
	var sp *obs.Span
	if c.Trace.SpansEnabled() {
		sp = c.Trace.Begin(obs.LayerCompile, "hop.recompile",
			obs.A("block", b.Index), obs.A("lines", fmt.Sprintf("%d-%d", b.FirstLine, b.LastLine)))
	}
	m := c.Trace.Metrics()
	var nb *Block
	resized := false
	if !rebuildOnly {
		nb, resized = c.resize(b, vars, prev)
	}
	if resized {
		m.Add("compile.resizes", 1)
	} else {
		var err error
		if nb, err = c.rebuild(b, vars); err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, err
		}
		m.Add("compile.recompile_fallbacks", 1)
	}
	if recompiled != nil {
		recompiled(c, b, vars, nb, resized)
	}
	sp.End()
	m.Add("compile.recompiles", 1)
	return nb, nil
}

// Test hooks, set only through export_test.go: rebuildOnly makes
// RecompileGeneric rebuild every block, and recompiled sees each block it
// returns and whether the re-size built it.
var (
	rebuildOnly bool
	recompiled  func(c *Compiler, b *Block, vars Vars, nb *Block, resized bool)
)

// rebuild builds b anew against the metadata vars holds for b.Reads, from
// its source block b.Src through the template (from the statements under
// statementsOnly), keeping only the writes b keeps. Every block Compile,
// RebuildScope and RecompileGeneric return carries its Src.
func (c *Compiler) rebuild(b *Block, vars Vars) (*Block, error) {
	meta := make(SymTab, len(b.Reads))
	for _, name := range b.Reads {
		if m, ok := vars.Meta(name); ok {
			meta[name] = m
		}
	}
	nb, err := c.generic(b.Src, meta)
	if err != nil {
		return nil, err
	}
	nb.Index, nb.Reads, nb.Src = b.Index, b.Reads, b.Src
	nb.keepWritesOf(b)
	nb.finish()
	return nb, nil
}

// keepWritesOf drops the transient writes of nb, a rebuild of b, that b
// does not write: the dead matrix writes pruneDeadWrites removed from b
// stay removed, so the recompiled block binds and computes no more than
// the compiled one.
func (nb *Block) keepWritesOf(b *Block) {
	kept := nb.Roots[:0]
	for _, r := range nb.Roots {
		if r.Kind != KindTWrite || slices.ContainsFunc(b.Roots, func(w *Hop) bool {
			return w.Kind == KindTWrite && w.Name == r.Name
		}) {
			kept = append(kept, r)
		}
	}
	nb.Roots = kept
}

func (c *Compiler) buildBlocks(sblocks []*dml.StatementBlock, meta SymTab) ([]*Block, error) {
	var out []*Block
	for _, sb := range sblocks {
		built, err := c.buildBlock(sb, meta)
		if err != nil {
			return nil, err
		}
		out = append(out, built...)
	}
	return out, nil
}

// buildBlock compiles one statement block; branch removal may splice a
// conditional's branch blocks directly into the parent, hence the slice
// return.
func (c *Compiler) buildBlock(sb *dml.StatementBlock, meta SymTab) ([]*Block, error) {
	var out []*Block
	var err error
	switch sb.Kind {
	case dml.GenericBlock:
		var b *Block
		b, err = c.generic(sb, meta)
		if b != nil {
			out = []*Block{b}
		}
	case dml.IfBlockKind:
		out, err = c.buildIf(sb, meta)
	case dml.WhileBlockKind:
		out, err = c.buildWhile(sb, meta)
	case dml.ForBlockKind:
		out, err = c.buildFor(sb, meta)
	default:
		err = fmt.Errorf("hop: unsupported block kind %v", sb.Kind)
	}
	if err != nil {
		return nil, err
	}
	for _, b := range out {
		if b.Src == nil {
			b.Src = sb
		}
	}
	return out, nil
}

// RebuildScope recompiles the statement blocks underlying the given hop
// blocks against runtime metadata, returning a standalone program for
// re-optimization (paper §4.2). Since the scope extends to the end of the
// call context, dead stores at scope end are prunable. It takes ownership
// of meta: a caller that reads meta afterwards, or passes it again, hands
// over a Clone.
func (c *Compiler) RebuildScope(blocks []*Block, meta SymTab) (*Program, error) {
	var sp *obs.Span
	if c.Trace.SpansEnabled() {
		sp = c.Trace.Begin(obs.LayerCompile, "hop.rebuild-scope", obs.A("blocks", len(blocks)))
		defer sp.End()
	}
	srcs, err := Sources(blocks)
	if err != nil {
		return nil, err
	}
	rebuilt, err := c.buildBlocks(srcs, meta)
	if err != nil {
		return nil, err
	}
	pruneDeadWrites(rebuilt)
	return c.program(rebuilt, ""), nil
}

// Sources returns the statement blocks the given hop blocks were built
// from, in order and once each: branch removal may map several hop blocks
// to one source block. RebuildScope rebuilds exactly these.
func Sources(blocks []*Block) ([]*dml.StatementBlock, error) {
	srcs := make([]*dml.StatementBlock, 0, len(blocks))
	for _, b := range blocks {
		if b.Src == nil {
			return nil, fmt.Errorf("hop: block at line %d lacks source linkage", b.FirstLine)
		}
		if len(srcs) == 0 || srcs[len(srcs)-1] != b.Src {
			srcs = append(srcs, b.Src)
		}
	}
	return srcs, nil
}

// program finishes a block tree whose dead writes are pruned: it indexes
// the leaf blocks for the resource vector, applies the transpose-mm
// rewrite to each one's DAG, linearizes it and records its read set, and
// rewrites and linearizes each control block's header.
func (c *Compiler) program(blocks []*Block, source string) *Program {
	p := &Program{Blocks: blocks, Source: source, Params: c.Params}
	WalkBlocks(blocks, func(b *Block) {
		b.Index = -1
		if b.Kind == dml.GenericBlock {
			b.Index = p.NumLeaf
			p.NumLeaf++
			b.finish()
			if b.Reads == nil {
				b.Reads = stmtReads(b.Stmts)
			}
		} else {
			fuseDAG(blockRoots(b), 0)
			b.Header = walkOrder(nil, blockRoots(b))
		}
	})
	return p
}

func (c *Compiler) buildIf(sb *dml.StatementBlock, meta SymTab) ([]*Block, error) {
	predCtx := c.newCtx(meta)
	pred, err := c.expr(sb.Pred, predCtx)
	if err != nil {
		return nil, fmt.Errorf("line %d: if predicate: %w", sb.FirstLine, err)
	}
	if pred.DataType == Matrix {
		return nil, fmt.Errorf("line %d: if predicate must be scalar", sb.FirstLine)
	}
	// Static branch removal (paper Appendix B): a constant-folded predicate
	// selects one branch, enabling unconditional size propagation.
	if pred.KnownVal {
		if pred.Value != 0 {
			return c.buildBlocks(sb.Then, meta)
		}
		return c.buildBlocks(sb.Else, meta)
	}
	// The then-branch builds on a copy, the else-branch in place. After an
	// error meta is half-built, but no caller reads it then: Compile starts
	// from an empty table, RebuildScope from a copy, and a recompile's
	// rebuild from a table of its own.
	thenMeta := meta.Clone()
	thenB, err := c.buildBlocks(sb.Then, thenMeta)
	if err != nil {
		return nil, err
	}
	elseB, err := c.buildBlocks(sb.Else, meta)
	if err != nil {
		return nil, err
	}
	mergeMeta(meta, thenMeta)
	b := &Block{Kind: dml.IfBlockKind, Index: -1, Pred: pred, PredExpr: sb.Pred,
		Then: thenB, Else: elseB, FirstLine: sb.FirstLine, LastLine: sb.LastLine}
	return []*Block{b}, nil
}

func (c *Compiler) buildWhile(sb *dml.StatementBlock, meta SymTab) ([]*Block, error) {
	// Pass 1: trial compilation on a copy to discover which variables
	// change inside the loop; those are weakened to unknown (fixpoint
	// approximation, as in SystemML's size propagation).
	trial := meta.Clone()
	if _, err := c.buildBlocks(sb.Body, trial); err != nil {
		return nil, err
	}
	weaken(meta, trial)
	predCtx := c.newCtx(meta)
	pred, err := c.expr(sb.Pred, predCtx)
	if err != nil {
		return nil, fmt.Errorf("line %d: while predicate: %w", sb.FirstLine, err)
	}
	body, err := c.buildBlocks(sb.Body, meta)
	if err != nil {
		return nil, err
	}
	b := &Block{Kind: dml.WhileBlockKind, Index: -1, Pred: pred, PredExpr: sb.Pred,
		Body: body, KnownIters: Unknown, FirstLine: sb.FirstLine, LastLine: sb.LastLine}
	return []*Block{b}, nil
}

func (c *Compiler) buildFor(sb *dml.StatementBlock, meta SymTab) ([]*Block, error) {
	fromCtx := c.newCtx(meta)
	from, err := c.expr(sb.From, fromCtx)
	if err != nil {
		return nil, fmt.Errorf("line %d: for lower bound: %w", sb.FirstLine, err)
	}
	to, err := c.expr(sb.To, fromCtx)
	if err != nil {
		return nil, fmt.Errorf("line %d: for upper bound: %w", sb.FirstLine, err)
	}
	iters := Unknown
	if from.KnownVal && to.KnownVal {
		iters = int64(to.Value-from.Value) + 1
		if iters < 0 {
			iters = 0
		}
	}
	trial := meta.Clone()
	trial[sb.Var] = VarMeta{} // loop variable: scalar, unknown value
	if _, err := c.buildBlocks(sb.Body, trial); err != nil {
		return nil, err
	}
	weaken(meta, trial)
	meta[sb.Var] = VarMeta{}
	body, err := c.buildBlocks(sb.Body, meta)
	if err != nil {
		return nil, err
	}
	b := &Block{Kind: dml.ForBlockKind, Index: -1, Var: sb.Var,
		From: from, To: to,
		Body: body, KnownIters: iters, Parallel: sb.Parallel,
		FirstLine: sb.FirstLine, LastLine: sb.LastLine}
	return []*Block{b}, nil
}

// mergeMeta merges the then-branch's symbol table into the else-branch's
// table els: agreeing facts survive, disagreeing facts are weakened to
// unknown, and a variable only one branch defines is kept fully weakened
// (its existence is conditional).
func mergeMeta(els, then SymTab) {
	for k, vb := range els {
		if _, ok := then[k]; !ok {
			els[k] = weakened(vb, vb.unknownLike())
		}
	}
	for k, va := range then {
		vb, ok := els[k]
		switch {
		case ok && va == vb:
		case ok:
			els[k] = weakened(va, vb)
		default:
			els[k] = weakened(va, va.unknownLike())
		}
	}
}

func (v VarMeta) unknownLike() VarMeta {
	if v.IsMatrix {
		return VarMeta{IsMatrix: true, Rows: Unknown, Cols: Unknown, NNZ: Unknown}
	}
	return VarMeta{}
}

// weakened merges two facts about the same variable, keeping agreement and
// discarding disagreement.
func weakened(a, b VarMeta) VarMeta {
	if a.IsMatrix != b.IsMatrix {
		return VarMeta{IsMatrix: true, Rows: Unknown, Cols: Unknown, NNZ: Unknown}
	}
	if a.IsMatrix {
		out := VarMeta{IsMatrix: true, Rows: Unknown, Cols: Unknown, NNZ: Unknown}
		if a.Rows == b.Rows {
			out.Rows = a.Rows
		}
		if a.Cols == b.Cols {
			out.Cols = a.Cols
		}
		if a.NNZ == b.NNZ {
			out.NNZ = a.NNZ
		}
		return out
	}
	out := VarMeta{}
	if a.Known && b.Known && a.Val == b.Val {
		out.Known, out.Val = true, a.Val
	}
	if a.IsStr && b.IsStr && a.Str == b.Str {
		out.IsStr, out.Str = true, a.Str
	}
	return out
}

// weaken folds the differences between meta and the trial table back into
// meta: any variable whose metadata changed during the trial loop pass is
// weakened in meta.
func weaken(meta SymTab, trial SymTab) {
	for k, tv := range trial {
		mv, ok := meta[k]
		if !ok {
			// First defined inside the loop: conditional existence.
			meta[k] = weakened(tv, tv.unknownLike())
			continue
		}
		if mv != tv {
			meta[k] = weakened(mv, tv)
		}
	}
}
