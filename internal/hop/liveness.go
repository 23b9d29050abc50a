package hop

import (
	"maps"
	"slices"

	"elasticml/internal/dml"
)

// pruneDeadWrites runs a backward liveness analysis over the block
// hierarchy and removes transient writes of variables that are never read
// afterwards. Dead transient writes otherwise inflate operator fan-out and
// inhibit fusion rewrites such as MapMMChain (a dead intermediate would
// appear to require materialization). It reuses a's storage from the last
// analysis.
func (a *liveness) pruneDeadWrites(blocks []*Block) {
	if a.ids == nil {
		a.ids, a.reads = make(map[string]int), make(map[*Block][]int)
	}
	clear(a.ids)
	clear(a.reads)
	a.slab = a.slab[:0]
	WalkBlocks(blocks, func(b *Block) {
		a.collect(b)
		for _, r := range b.Roots {
			if r.Kind == KindTWrite {
				a.id(r.Name)
			}
		}
		if b.Var != "" {
			a.id(b.Var)
		}
	})
	w := (len(a.ids) + 63) / 64
	a.sets = append(a.sets[:0], make(varSet, w)...)
	a.blocks(blocks, a.sets[:w:w], true)
}

type stringSet map[string]bool

func (s stringSet) add(names []string) {
	for _, k := range names {
		s[k] = true
	}
}

// stmtReads returns the variables straight-line statements read, sorted
// and once each: every identifier, and the target of a left-indexed
// assignment (the update reads the matrix it writes into).
func stmtReads(stmts []dml.Stmt) []string { return stmtNames(stmts, false) }

// stmtParams returns the $ parameters straight-line statements read, by
// their reserved names (see paramName), sorted and once each.
func stmtParams(stmts []dml.Stmt) []string { return stmtNames(stmts, true) }

// stmtNames returns the names stmtReads, or with params set stmtParams,
// returns.
func stmtNames(stmts []dml.Stmt, params bool) []string {
	var names []string
	for _, st := range stmts {
		switch st := st.(type) {
		case *dml.Assign:
			names = appendNames(names, st.Expr, params)
			if st.LIndex != nil {
				names = appendNames(names, st.LIndex, params) // its Target names the matrix
			}
		case *dml.ExprStmt:
			names = appendNames(names, st.Call, params)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// appendReads appends every identifier e holds to names; a nil e holds
// none.
func appendReads(names []string, e dml.Expr) []string { return appendNames(names, e, false) }

// appendNames appends every identifier e holds to names, or with params
// set the reserved name of every $ parameter.
func appendNames(names []string, e dml.Expr, params bool) []string {
	switch e := e.(type) {
	case *dml.Ident:
		if !params {
			names = append(names, e.Name)
		}
	case *dml.Param:
		if params {
			names = append(names, paramName(e.Name))
		}
	case *dml.BinOp:
		names = appendNames(appendNames(names, e.Left, params), e.Right, params)
	case *dml.UnOp:
		names = appendNames(names, e.X, params)
	case *dml.Call:
		for _, a := range e.Args {
			names = appendNames(names, a, params)
		}
		for _, a := range e.Named {
			names = appendNames(names, a, params)
		}
	case *dml.Index:
		names = appendNames(names, e.Target, params)
		for _, r := range []*dml.IndexRange{e.Row, e.Col} {
			if r != nil {
				names = appendNames(appendNames(names, r.Lo, params), r.Hi, params)
			}
		}
	}
	return names
}

// LiveIn returns, sorted, the variables live at the start of srcs: those
// some path through the blocks may read before it assigns them. A
// statement reads what stmtReads reports, so also the scalars constant
// folding later drops and the target of a left-indexed assignment; only a
// plain assignment kills its target. A branch is live-in if either arm is,
// a loop iterates its body with its predicate or bounds to a fixpoint (it
// may also run zero times), and a for header kills its loop variable. So
// RebuildScope of srcs builds the same program from the metadata of these
// names alone: every other name is assigned before anything reads it.
func LiveIn(srcs []*dml.StatementBlock) []string {
	live := stringSet{}
	liveIn(srcs, live)
	names := make([]string, 0, len(live))
	for name := range live {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// liveIn processes bs backward, turning live from the live-out set into
// the live-in set.
func liveIn(bs []*dml.StatementBlock, live stringSet) {
	for i := len(bs) - 1; i >= 0; i-- {
		b := bs[i]
		switch b.Kind {
		case dml.GenericBlock:
			for j := len(b.Stmts) - 1; j >= 0; j-- {
				if a, ok := b.Stmts[j].(*dml.Assign); ok && a.LIndex == nil {
					delete(live, a.Target)
				}
				live.add(stmtReads(b.Stmts[j : j+1]))
			}
		case dml.IfBlockKind:
			elseLive := maps.Clone(live)
			liveIn(b.Then, live)
			liveIn(b.Else, elseLive)
			maps.Copy(live, elseLive)
			live.add(appendReads(nil, b.Pred))
		default: // while / for
			live.add(appendReads(nil, b.Pred))
			for {
				bodyLive := maps.Clone(live)
				liveIn(b.Body, bodyLive)
				n := len(live)
				maps.Copy(live, bodyLive)
				if len(live) == n {
					break
				}
			}
			if b.Var != "" {
				delete(live, b.Var)
			}
			live.add(appendReads(appendReads(nil, b.From), b.To))
		}
	}
}

// liveness is one analysis. It numbers the variables the blocks read and
// write, so a live set is a bit set, and reads caches the numbers of the
// variables each block's own DAGs read — a generic block's roots, a
// control block's header — since the loop fixpoint passes over every
// block several times. The read lists are windows of slab, and the live
// sets of the branches and loops in progress windows of sets, a stack.
type liveness struct {
	ids   map[string]int
	reads map[*Block][]int
	slab  []int
	sets  varSet
}

// id returns name's number, numbering it if it has none.
func (a *liveness) id(name string) int {
	i, ok := a.ids[name]
	if !ok {
		i = len(a.ids)
		a.ids[name] = i
	}
	return i
}

// collect records the variables b's own DAGs read.
func (a *liveness) collect(b *Block) {
	start := len(a.slab)
	WalkDAG(blockRoots(b), func(h *Hop) {
		if h.Kind == KindTRead {
			a.slab = append(a.slab, a.id(h.Name))
		}
	})
	a.reads[b] = a.slab[start:len(a.slab):len(a.slab)]
}

// set pushes a copy of s onto the stack of live sets; its caller pops it
// by truncating a.sets to the length it had before.
func (a *liveness) set(s varSet) varSet {
	n := len(a.sets)
	a.sets = append(a.sets, s...)
	return a.sets[n:len(a.sets):len(a.sets)]
}

// blocks processes bs backward, turning live from the live-out set into
// the live-in set; when mark is true, dead transient writes are pruned
// from generic blocks.
func (a *liveness) blocks(bs []*Block, live varSet, mark bool) {
	for i := len(bs) - 1; i >= 0; i-- {
		a.block(bs[i], live, mark)
	}
}

func (a *liveness) block(b *Block, live varSet, mark bool) {
	n := len(a.sets)
	switch b.Kind {
	case dml.GenericBlock:
		if mark {
			kept := b.Roots[:0]
			for _, r := range b.Roots {
				// Dead matrix stores are pruned (they inflate fan-out and
				// inhibit fusion), and a recompile keeps them pruned
				// (keepWritesOf). Scalar stores are kept regardless: they
				// cost nothing, and the rebuild a recompile falls back to
				// looks up every scalar its statements read, also those
				// constant folding removed from the DAG, where this
				// analysis cannot see the reads.
				if r.Kind == KindTWrite && r.DataType == Matrix && !live.has(a.ids[r.Name]) {
					continue
				}
				kept = append(kept, r)
			}
			if len(kept) < len(b.Roots) {
				b.Roots = kept
				// Reads are collected from the surviving roots only.
				a.collect(b)
			}
		}
		for _, r := range b.Roots {
			if r.Kind == KindTWrite {
				live.del(a.ids[r.Name])
			}
		}
		live.add(a.reads[b])

	case dml.IfBlockKind:
		elseLive := a.set(live)
		a.blocks(b.Then, live, mark)
		a.blocks(b.Else, elseLive, mark)
		live.or(elseLive)
		live.add(a.reads[b])
		a.sets = a.sets[:n]

	default: // while / for
		// Fixpoint: variables read by any later iteration are live at the
		// loop back-edge. Iterate without marking until stable, then mark.
		live.add(a.reads[b])
		for {
			bodyLive := a.set(live)
			a.blocks(b.Body, bodyLive, false)
			grew := live.or(bodyLive)
			a.sets = a.sets[:n]
			if !grew {
				break
			}
		}
		if mark {
			a.blocks(b.Body, a.set(live), true)
			a.sets = a.sets[:n]
		}
		if b.Var != "" {
			live.del(a.ids[b.Var])
		}
	}
}

// varSet is a set of variable numbers, one bit each.
type varSet []uint64

func (s varSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s varSet) del(i int)      { s[i/64] &^= 1 << (i % 64) }

func (s varSet) add(ids []int) {
	for _, i := range ids {
		s[i/64] |= 1 << (i % 64)
	}
}

// or adds o to s and reports whether s grew.
func (s varSet) or(o varSet) bool {
	grew := false
	for k, w := range o {
		grew = grew || w&^s[k] != 0
		s[k] |= w
	}
	return grew
}
