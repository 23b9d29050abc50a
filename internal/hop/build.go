package hop

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"weak"

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
	// scratch is the storage of the build in progress (see startBuild).
	// It is nil between builds, so a compiler that a program's owner
	// keeps retains none of it, and Fork does not share it.
	scratch *scratch
	// template marks the compiler that builds a template: it reads a
	// numeric $ parameter as an unknown scalar under its reserved name
	// (see paramName) and builds a read() of unknown size (see
	// Script.template).
	template bool
	// statementsOnly, set only by tests, makes every generic block build
	// from its statements, as it did before templates.
	statementsOnly bool
}

// scratch is the storage a build reuses and keeps nothing of: the depth
// of the loop trial builds in progress, the block every generic block
// re-sizes into (overwritten on every use: a trial keeps only the
// metadata a block publishes, and a kept block is compacted out of it),
// the symbol table a compile builds on, the stack of values the merges in
// progress saved (see join), the one DAG build context a build uses at a
// time (see newCtx), and the dead-write analysis (see liveness).
type scratch struct {
	trials int
	buf    blockBuf
	meta   SymTab
	saved  []savedMeta
	ctx    dagCtx
	live   liveness
	// fixes holds the facts of script.facts[sb] the loop sb settled in
	// last, from fixAt[sb] on.
	fixes []savedMeta
	fixAt map[*dml.StatementBlock]int
}

// savedMeta is a name's value in a symbol table, ok if it is defined.
type savedMeta struct {
	v  VarMeta
	ok bool
}

// into makes s name's value in meta.
func (s savedMeta) into(meta SymTab, name string) {
	if s.ok {
		meta[name] = s.v
	} else {
		delete(meta, name)
	}
}

// scratches holds the scratch of finished builds for the next ones, so
// that a warm compile allocates only the program it returns. It holds
// them weakly: a collection frees every idle scratch, so none outlives
// the builds that use it.
var scratches struct {
	sync.Mutex
	idle []weak.Pointer[scratch]
}

// startBuild hands the build about to run an idle scratch, or a new one,
// which endBuild takes back. It refuses a compiler that compiled no
// program: the templates and write sets a build reads belong to the
// program's script.
func (c *Compiler) startBuild() error {
	if c.script == nil {
		return errors.New("hop: the compiler compiled no program; only a program's compiler or a Fork of it rebuilds the program")
	}
	scratches.Lock()
	for c.scratch == nil && len(scratches.idle) > 0 {
		n := len(scratches.idle) - 1
		c.scratch = scratches.idle[n].Value()
		scratches.idle = scratches.idle[:n]
	}
	scratches.Unlock()
	if c.scratch == nil {
		c.scratch = &scratch{meta: SymTab{}, fixAt: map[*dml.StatementBlock]int{}}
	}
	return nil
}

func (c *Compiler) endBuild() {
	clear(c.scratch.meta)
	clear(c.scratch.fixAt)
	c.scratch.fixes = c.scratch.fixes[:0]
	c.scratch.saved = c.scratch.saved[:0] // a failed build leaves its merges' values
	scratches.Lock()
	scratches.idle = append(scratches.idle, weak.Make(c.scratch))
	scratches.Unlock()
	c.scratch = nil
}

// join builds the blocks first and then second on meta, each from meta's
// entry values (first with a for loop's variable bound as an unknown
// scalar), and merges what the two leave: agreeing facts survive,
// disagreeing facts are weakened to unknown, and a variable only one of
// them defines is kept fully weakened (its existence is conditional).
// Only the names of sb's write set can differ between the two, so it
// saves, restores and merges those alone, and reports settled when the
// merge left each of them as second left it. An if joins its branches,
// and a loop its body with the empty arm of zero iterations (see
// buildLoop): settled then says the body weakened nothing.
// After an error meta is half-built, but no caller reads it then: Compile
// starts from an empty table, RebuildScope from a copy, and a recompile's
// rebuild from a table of its own.
func (c *Compiler) join(sb *dml.StatementBlock, meta SymTab, first, second []*dml.StatementBlock) (a, b []*Block, settled bool, err error) {
	var entry SymTab
	if joined != nil {
		entry = meta.Clone()
	}
	ws, base := c.script.writes[sb], len(c.scratch.saved) // sb's write set, which the script holds
	for _, name := range ws {
		v, ok := meta[name]
		c.scratch.saved = append(c.scratch.saved, savedMeta{v, ok})
	}
	if sb.Var != "" {
		meta[sb.Var] = VarMeta{} // loop variable: scalar, unknown value
	}
	if a, err = c.buildBlocks(nil, first, meta); err != nil {
		return nil, nil, false, err
	}
	// The builds nested in an arm push and pop above base, and may move
	// the stack, so each pass re-slices it.
	saved := c.scratch.saved[base : base+len(ws)]
	for i, name := range ws { // swap the first arm's values for the entry values
		v, ok := meta[name]
		saved[i].into(meta, name)
		saved[i] = savedMeta{v, ok}
	}
	if b, err = c.buildBlocks(nil, second, meta); err != nil {
		return nil, nil, false, err
	}
	saved = c.scratch.saved[base : base+len(ws)]
	settled = true
	for i, name := range ws {
		v, ok := meta[name]
		m, mok := merged(v, ok, saved[i].v, saved[i].ok)
		if settled = settled && m == v && mok == ok; mok {
			meta[name] = m
		}
	}
	c.scratch.saved = c.scratch.saved[:base]
	if joined != nil {
		joined(c, sb, entry, meta)
	}
	return a, b, settled, nil
}

// Test hook, set only through export_test.go: joined sees the table each
// join started from and the one it left.
var joined func(c *Compiler, sb *dml.StatementBlock, entry, out SymTab)

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
	f.FS, f.scratch = fs, nil
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
// CompileScript for a shared one). The second argument, the script's
// source text, is unused.
func (c *Compiler) Compile(prog *dml.Program, _ string) (*Program, error) {
	sp := c.Trace.Begin(obs.LayerCompile, "hop.compile")
	inl := c.Trace.Begin(obs.LayerCompile, "hop.inline-functions", obs.A("funcs", len(prog.Funcs)))
	s := &Script{trace: c.Trace}
	s.build(prog)
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
	if err := c.startBuild(); err != nil {
		return nil, err
	}
	defer c.endBuild()
	bld := c.Trace.Begin(obs.LayerCompile, "hop.build-dags", obs.A("stmt_blocks", len(s.blocks)))
	blocks, err := c.buildBlocks(nil, s.blocks, c.scratch.meta)
	bld.End()
	if err != nil {
		return nil, err
	}
	rw := c.Trace.Begin(obs.LayerCompile, "hop.rewrite")
	c.scratch.live.pruneDeadWrites(blocks)
	p := program(c, blocks)
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
	if err := c.startBuild(); err != nil {
		return nil, err
	}
	nb, err := c.generic(b.Src, meta)
	c.endBuild()
	if err != nil {
		return nil, err
	}
	nb.Index, nb.Reads, nb.Src, nb.Parent = b.Index, b.Reads, b.Src, b.Parent
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

// buildBlocks builds sblocks on meta and appends the blocks to out. Branch
// removal splices a conditional's branch blocks directly into out, and a
// loop's trial, which keeps only the metadata its blocks publish, appends
// nothing.
func (c *Compiler) buildBlocks(out []*Block, sblocks []*dml.StatementBlock, meta SymTab) ([]*Block, error) {
	for _, sb := range sblocks {
		start := len(out)
		var err error
		switch sb.Kind {
		case dml.GenericBlock:
			var b *Block
			if b, err = c.generic(sb, meta); err == nil && c.scratch.trials == 0 {
				out = append(out, b)
			}
		case dml.IfBlockKind:
			out, err = c.buildIf(out, sb, meta)
		case dml.WhileBlockKind, dml.ForBlockKind:
			out, err = c.buildLoop(out, sb, meta)
		default:
			err = fmt.Errorf("hop: unsupported block kind %v", sb.Kind)
		}
		if err != nil {
			return nil, err
		}
		for _, b := range out[start:] {
			if b.Src == nil {
				b.Src = sb
			}
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
	if err := c.startBuild(); err != nil {
		return nil, err
	}
	defer c.endBuild()
	rebuilt, err := c.buildBlocks(nil, srcs, meta)
	if err != nil {
		return nil, err
	}
	c.scratch.live.pruneDeadWrites(rebuilt)
	return program(c, rebuilt), nil
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
// the leaf blocks for the resource vector and links every block to its
// parent, applies the transpose-mm rewrite to each leaf's DAG, linearizes
// it and records its read set, and rewrites and linearizes each control
// block's header. The program keeps c, the compiler that built it.
func program(c *Compiler, blocks []*Block) *Program {
	p := &Program{Blocks: blocks, comp: c}
	p.index(blocks, nil)
	return p
}

// index finishes blocks, the children of parent, in pre-order.
func (p *Program) index(blocks []*Block, parent *Block) {
	for _, b := range blocks {
		b.Index, b.Parent = -1, parent
		if b.Kind == dml.GenericBlock {
			b.Index, p.NumLeaf = p.NumLeaf, p.NumLeaf+1
			b.finish()
			if b.Reads == nil {
				b.Reads = stmtReads(b.Src.Stmts)
			}
			continue
		}
		fuseDAG(blockRoots(b), 0)
		b.Header = walkOrder(nil, blockRoots(b))
		p.index(b.Then, b)
		p.index(b.Else, b)
		p.index(b.Body, b)
	}
}

func (c *Compiler) buildIf(out []*Block, sb *dml.StatementBlock, meta SymTab) ([]*Block, error) {
	pred, err := c.expr(sb.Pred, c.newCtx(meta))
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
			return c.buildBlocks(out, sb.Then, meta)
		}
		return c.buildBlocks(out, sb.Else, meta)
	}
	thenB, elseB, _, err := c.join(sb, meta, sb.Then, sb.Else)
	if err != nil || c.scratch.trials > 0 {
		return out, err
	}
	return append(out, &Block{Kind: dml.IfBlockKind, Index: -1, Pred: pred,
		Then: thenB, Else: elseB, FirstLine: sb.FirstLine, LastLine: sb.LastLine}), nil
}

// buildLoop builds the while or for loop sb. A loop is an if whose other
// arm runs zero iterations: it joins its body with that empty arm until a
// join leaves the facts it started from. Those facts hold at the start of
// every iteration and at the exit, however many times the body runs, none
// included (SystemML's size propagation approximates this fixpoint).
// Every join but the last is a trial, which keeps only the metadata the
// body publishes; outside an enclosing trial the last builds the kept
// body, inside one there is none. The build keeps the facts each loop
// settled in, and an entry that implies them takes them without a trial,
// so each pass of an enclosing loop but the first finds its nested loops
// settled. A for's bounds read the entry facts, a while's predicate the
// settled ones.
func (c *Compiler) buildLoop(out []*Block, sb *dml.StatementBlock, meta SymTab) ([]*Block, error) {
	var from, to, pred *Hop
	iters := Unknown
	var err error
	if sb.Kind == dml.ForBlockKind {
		ctx := c.newCtx(meta)
		if from, err = c.expr(sb.From, ctx); err != nil {
			return nil, fmt.Errorf("line %d: for lower bound: %w", sb.FirstLine, err)
		}
		if to, err = c.expr(sb.To, ctx); err != nil {
			return nil, fmt.Errorf("line %d: for upper bound: %w", sb.FirstLine, err)
		}
		if from.KnownVal && to.KnownVal {
			iters = max(int64(to.Value-from.Value)+1, 0)
		}
	}
	// An entry whose facts imply those the loop settled in before takes
	// them without a trial.
	names, fixes := c.script.facts[sb], c.scratch.fixes
	at, settled := c.scratch.fixAt[sb]
	for i := 0; settled && i < len(names); i++ {
		v, ok := meta[names[i]]
		m, mok := merged(fixes[at+i].v, fixes[at+i].ok, v, ok)
		settled = savedMeta{m, mok} == fixes[at+i]
	}
	for i := 0; settled && i < len(c.script.writes[sb]); i++ {
		fixes[at+i].into(meta, names[i]) // names begins with sb's write set
	}
	for trips := 0; ; trips++ {
		// Inside an enclosing trial every join is a trial; outside one
		// only the first is, and a kept body that settles ends the loop.
		if !settled && (trips == 0 || c.scratch.trials > 0) {
			c.scratch.trials++
			_, _, settled, err = c.join(sb, meta, sb.Body, nil)
			if c.scratch.trials--; err != nil {
				return nil, err
			}
			continue
		}
		if sb.Kind == dml.WhileBlockKind {
			if pred, err = c.expr(sb.Pred, c.newCtx(meta)); err != nil {
				return nil, fmt.Errorf("line %d: while predicate: %w", sb.FirstLine, err)
			}
			// The predicate reads facts the entry implies, so one that
			// folds to false was false at entry: the loop runs no iteration.
			if iters = Unknown; pred.KnownVal && pred.Value == 0 {
				iters = 0
			}
		}
		if c.scratch.trials > 0 {
			break
		}
		var body []*Block
		if body, _, settled, err = c.join(sb, meta, sb.Body, nil); err != nil {
			return nil, err
		}
		if settled {
			out = append(out, &Block{Kind: sb.Kind, Index: -1, Pred: pred, Var: sb.Var, From: from, To: to,
				Body: body, KnownIters: iters, Parallel: sb.Parallel, FirstLine: sb.FirstLine, LastLine: sb.LastLine})
			break
		}
	}
	c.scratch.fixAt[sb] = len(c.scratch.fixes)
	for _, name := range names {
		v, ok := meta[name]
		c.scratch.fixes = append(c.scratch.fixes, savedMeta{v, ok})
	}
	return out, nil
}

// merged is what a variable's facts become where one path leaves a (aok if
// it defines the variable) and the other b: agreement survives,
// disagreement is weakened, and a variable only one path defines is kept
// fully weakened.
func merged(a VarMeta, aok bool, b VarMeta, bok bool) (VarMeta, bool) {
	switch {
	case aok && bok && a != b:
		return weakened(a, b), true
	case aok && !bok:
		return a.unknownLike(), true
	case bok && !aok:
		return b.unknownLike(), true
	}
	return a, aok
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
