package hop

import "elasticml/internal/dml"

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

func (s stringSet) addAll(o stringSet) {
	for k := range o {
		s[k] = true
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
