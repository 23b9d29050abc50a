package hop

import (
	"slices"

	"elasticml/internal/dml"
)

// pruneDeadWrites runs a backward liveness analysis over the block
// hierarchy and removes transient writes of variables that are never read
// afterwards. Dead transient writes otherwise inflate operator fan-out and
// inhibit fusion rewrites such as MapMMChain (a dead intermediate would
// appear to require materialization).
func pruneDeadWrites(blocks []*Block) {
	a := liveness{reads: make(map[*Block][]string)}
	a.blocks(blocks, stringSet{}, true)
}

type stringSet map[string]bool

func (s stringSet) clone() stringSet {
	c := make(stringSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s stringSet) add(names []string) {
	for _, k := range names {
		s[k] = true
	}
}

func (s stringSet) addAll(o stringSet) {
	for k := range o {
		s[k] = true
	}
}

// stmtReads returns the variables straight-line statements read, sorted
// and once each: every identifier, and the target of a left-indexed
// assignment (the update reads the matrix it writes into).
func stmtReads(stmts []dml.Stmt) []string {
	var names []string
	for _, st := range stmts {
		switch st := st.(type) {
		case *dml.Assign:
			names = appendReads(names, st.Expr)
			if st.LIndex != nil {
				names = appendReads(names, st.LIndex) // its Target names the matrix
			}
		case *dml.ExprStmt:
			names = appendReads(names, st.Call)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// appendReads appends every identifier e holds to names; a nil e holds
// none.
func appendReads(names []string, e dml.Expr) []string {
	switch e := e.(type) {
	case *dml.Ident:
		names = append(names, e.Name)
	case *dml.BinOp:
		names = appendReads(appendReads(names, e.Left), e.Right)
	case *dml.UnOp:
		names = appendReads(names, e.X)
	case *dml.Call:
		for _, a := range e.Args {
			names = appendReads(names, a)
		}
		for _, a := range e.Named {
			names = appendReads(names, a)
		}
	case *dml.Index:
		names = appendReads(names, e.Target)
		for _, r := range []*dml.IndexRange{e.Row, e.Col} {
			if r != nil {
				names = appendReads(appendReads(names, r.Lo), r.Hi)
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
			elseLive := live.clone()
			liveIn(b.Then, live)
			liveIn(b.Else, elseLive)
			live.addAll(elseLive)
			live.add(appendReads(nil, b.Pred))
		default: // while / for
			live.add(appendReads(nil, b.Pred))
			for {
				bodyLive := live.clone()
				liveIn(b.Body, bodyLive)
				n := len(live)
				live.addAll(bodyLive)
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

// liveness is one analysis. reads caches the variables each block's own
// DAGs read — a generic block's roots, a control block's header — since
// the loop fixpoint passes over every block several times.
type liveness struct {
	reads map[*Block][]string
}

// blocks processes bs backward, turning live from the live-out set into
// the live-in set; when mark is true, dead transient writes are pruned
// from generic blocks.
func (a *liveness) blocks(bs []*Block, live stringSet, mark bool) {
	for i := len(bs) - 1; i >= 0; i-- {
		a.block(bs[i], live, mark)
	}
}

func (a *liveness) block(b *Block, live stringSet, mark bool) {
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
				if r.Kind == KindTWrite && r.DataType == Matrix && !live[r.Name] {
					continue
				}
				kept = append(kept, r)
			}
			if len(kept) < len(b.Roots) {
				// Reads are collected from the surviving roots only.
				delete(a.reads, b)
				b.Recompile = HasUnknownDims(kept)
			}
			b.Roots = kept
		}
		for _, r := range b.Roots {
			if r.Kind == KindTWrite {
				delete(live, r.Name)
			}
		}
		a.addReads(live, b)

	case dml.IfBlockKind:
		elseLive := live.clone()
		a.blocks(b.Then, live, mark)
		a.blocks(b.Else, elseLive, mark)
		live.addAll(elseLive)
		a.addReads(live, b)

	default: // while / for
		// Fixpoint: variables read by any later iteration are live at the
		// loop back-edge. Iterate without marking until stable, then mark.
		a.addReads(live, b)
		for {
			bodyLive := live.clone()
			a.blocks(b.Body, bodyLive, false)
			n := len(live)
			live.addAll(bodyLive)
			if len(live) == n {
				break
			}
		}
		if mark {
			a.blocks(b.Body, live.clone(), true)
		}
		if b.Var != "" {
			delete(live, b.Var)
		}
	}
}

// addReads adds to live the variables b's own DAGs read.
func (a *liveness) addReads(live stringSet, b *Block) {
	reads, ok := a.reads[b]
	if !ok {
		WalkDAG(blockRoots(b), func(h *Hop) {
			if h.Kind == KindTRead {
				reads = append(reads, h.Name)
			}
		})
		a.reads[b] = reads
	}
	for _, name := range reads {
		live[name] = true
	}
}
