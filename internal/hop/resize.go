package hop

import "math"

// Vars is the variable table a dynamic recompilation reads: Meta returns
// the metadata of a live variable and whether it is defined. A SymTab is
// one; the runtime hands over its live-variable table.
type Vars interface {
	Meta(name string) (VarMeta, bool)
}

// Meta returns the metadata s holds for name.
func (s SymTab) Meta(name string) (VarMeta, bool) {
	m, ok := s[name]
	return m, ok
}

// blockBuf is the storage of a block RecompileGeneric returned, or of a
// build's scratch block: the block itself, its hop slab, the one pointer
// array behind its inputs and roots, and the arrays linearize fills. The
// next re-size of the same compiled block, or the build's next generic
// block, overwrites it, so one buffer serves every execution of the block.
type blockBuf struct {
	b      Block
	hops   []Hop
	ptrs   []*Hop
	counts []int
	users  []*Hop
}

// resize re-sizes b under vars (see resized) into a linearized block,
// fusing a transpose a fold left feeding left matmul operands only, as the
// rebuild does. It writes into prev's buffer when prev, a block an earlier
// resize returned, has one, and into a new buffer otherwise.
func (c *Compiler) resize(b *Block, vars Vars, prev *Block) (*Block, bool) {
	var buf *blockBuf
	if prev != nil && prev.buf != nil {
		buf = prev.buf
	} else {
		buf = new(blockBuf)
	}
	nb, ok := c.resized(b, vars, buf)
	if ok {
		nb.finish()
	}
	return nb, ok
}

// resized is dynamic recompilation as paper §2.1 describes it: it keeps b's
// DAG and updates the sizes the live variables now give it. It copies b's
// Order into one slab of hops, each with a new ID, and walks the copy
// once: a transient read takes its variable's metadata (a known scalar
// folds into a literal, as the build folds it), a persistent read its
// file's, and every other hop re-runs the build's inference and memory
// estimates, a scalar that becomes known folding into a literal the copy
// shares with every equal one. b itself is only read, so a compiled
// program stays safe to share between runs. The copy overwrites the block
// and storage buf holds where they are large enough.
//
// It reports false when a rebuild from b's statements would do more than
// re-size: a variable changed kind or is undefined, a file cannot be
// stat'ed, a matrix multiply's dimensions no longer agree (the rebuild
// reports the error), a value-dependent rewrite of binary would now fire,
// or two non-literal hops would now share a CSE key. Knowledge the compile
// folded away (a known scalar, a dimension read by nrow or ncol) is sound,
// so the live variables agree with it. The copy is not linearized: a
// build linearizes the blocks it keeps once its rewrites are done.
func (c *Compiler) resized(b *Block, vars Vars, buf *blockBuf) (*Block, bool) {
	// The slab holds the copy and room for eight of the literals folds
	// create; there is at most one per scalar hop of b, and the rest come
	// from chunks of at most eight: few folds make a literal of a new
	// value.
	n, nin, folds := len(b.Order), 0, 0
	for _, o := range b.Order {
		nin += len(o.Inputs)
		if o.DataType == Scalar && o.Kind != KindLit {
			folds++
		}
	}
	// A reused slab is cleared: finalize sets only what it infers.
	slab := reuse(buf.hops, n, n+min(folds, 8))
	folds -= cap(slab) - n
	// rep[i] stands for b.Order[i] in the copy: slab[i], or the literal it
	// folded into. One array backs rep, the copy's input slices and its
	// roots.
	ptrs := reuse(buf.ptrs, n+nin+len(b.Roots), n+nin+len(b.Roots))
	buf.hops, buf.ptrs = slab, ptrs
	rep, ins, roots := ptrs[:n], ptrs[n:n+nin], ptrs[n+nin:]
	// lits holds the copy's literals, kept ones first, so that a fold
	// shares the literal of its value as the build's literal table does.
	var litBuf [16]*Hop
	lits, chunk := litBuf[:0], slab[n:]
	for i, o := range b.Order {
		if o.Kind == KindLit {
			h := &slab[i]
			h.ID, h.Kind, h.DataType, h.Value, h.StrValue = c.id(), KindLit, o.DataType, o.Value, o.StrValue
			finalize(h)
			lits = append(lits, h)
		}
	}
	literal := func(v float64) *Hop {
		for _, l := range lits {
			if l.DataType == Scalar && sameValue(l.Value, v) {
				return l
			}
		}
		if len(chunk) == cap(chunk) {
			chunk = make([]Hop, 0, min(folds, 8))
			folds -= cap(chunk)
		}
		chunk = append(chunk, Hop{ID: c.id(), Kind: KindLit, DataType: Scalar, Value: v})
		l := &chunk[len(chunk)-1]
		finalize(l)
		lits = append(lits, l)
		return l
	}
	// changed lists the hops an input of which folded: only they can come
	// to share a CSE key with another hop.
	var changedBuf [16]int
	changed := changedBuf[:0]
	for i, o := range b.Order {
		h := &slab[i]
		rep[i] = h
		if o.Kind == KindLit {
			continue
		}
		h.ID, h.Kind, h.Op, h.DataType, h.Name, h.TransA = c.id(), o.Kind, o.Op, o.DataType, o.Name, o.TransA
		if k := len(o.Inputs); k > 0 {
			h.Inputs, ins = ins[:k:k], ins[k:]
			moved := false
			for j, in := range o.Inputs {
				if in != nil {
					h.Inputs[j] = rep[in.Pos]
					moved = moved || h.Inputs[j] != &slab[in.Pos]
				}
			}
			if moved {
				changed = append(changed, i)
			}
		}
		switch o.Kind {
		case KindTRead:
			m, ok := c.readMeta(vars, o.Name)
			if !ok || m.IsMatrix != (o.DataType == Matrix) || m.IsStr != (o.DataType == String) {
				return nil, false
			}
			switch {
			case m.IsMatrix:
				h.Rows, h.Cols, h.NNZ = m.Rows, m.Cols, m.NNZ
			case m.IsStr:
				h.StrValue = m.Str
			case m.Known:
				rep[i] = literal(m.Val)
				continue
			}
			estimateMem(h)
			continue
		case KindRead:
			if c.FS == nil {
				return nil, false
			}
			f, err := c.FS.Stat(o.Name)
			if err != nil {
				return nil, false
			}
			h.Rows, h.Cols, h.NNZ = f.Rows, f.Cols, f.NNZ
			estimateMem(h)
			continue
		case KindMatMul:
			l, r := h.Inputs[0], h.Inputs[1]
			lCols := l.Cols
			if h.TransA {
				lCols = l.Rows
			}
			if lCols != Unknown && r.Rows != Unknown && lCols != r.Rows {
				return nil, false
			}
		case KindBinary:
			// Over two literals a rewrite yields the literal folding does.
			l, r := h.Inputs[0], h.Inputs[1]
			if _, _, ok := binaryRewrite(h.Op, l, r); ok && (l.Kind != KindLit || r.Kind != KindLit) {
				return nil, false
			}
		case KindAggUnary:
			if x := h.Inputs[0]; o.Op == "nrow" || o.Op == "ncol" {
				dim := x.Rows
				if o.Op == "ncol" {
					dim = x.Cols
				}
				if dim != Unknown {
					rep[i] = literal(float64(dim))
					continue
				}
			}
		}
		finalize(h)
		if h.DataType == Scalar && h.KnownVal && !isRoot(h.Kind) {
			rep[i] = literal(h.Value)
		}
	}
	for _, i := range changed {
		if rep[i] == &slab[i] && !isRoot(slab[i].Kind) && collides(b, slab, rep, i) {
			return nil, false
		}
	}
	for k, r := range b.Roots {
		roots[k] = rep[r.Pos]
	}
	nb := &buf.b
	*nb = Block{Order: nb.Order[:0], Users: nb.Users[:0], buf: buf}
	nb.Kind, nb.Index, nb.Reads, nb.Roots = b.Kind, b.Index, b.Reads, roots
	nb.Src, nb.Parent, nb.FirstLine, nb.LastLine, nb.hint = b.Src, b.Parent, b.FirstLine, b.LastLine, n
	return nb, true
}

// readMeta returns the metadata of the variable a transient read reads
// from vars, and that of a template's $ parameter, read under its
// reserved name, from the compiler's parameters.
func (c *Compiler) readMeta(vars Vars, name string) (VarMeta, bool) {
	if name[0] == '$' {
		m, err := paramMeta(c.Params, name[1:])
		return m, err == nil
	}
	return vars.Meta(name)
}

// compact returns a copy of b, a re-size into a scratch buffer, that keeps
// only the hops its roots reach: one slab of exactly their number, and one
// pointer array behind their inputs and its roots. The re-size's slab has
// room for the literals its folds might create and keeps the hops that
// folded away.
func (b *Block) compact() *Block {
	b.Order = walkOrder(b.Order[:0], b.Roots)
	nin := 0
	for _, h := range b.Order {
		nin += len(h.Inputs)
	}
	hops, ptrs := make([]Hop, len(b.Order)), make([]*Hop, nin+len(b.Roots))
	for i, h := range b.Order {
		c := &hops[i]
		*c = *h
		if k := len(h.Inputs); k > 0 {
			c.Inputs, ptrs = ptrs[:k:k], ptrs[k:]
			for j, in := range h.Inputs {
				if in != nil {
					c.Inputs[j] = &hops[in.Pos]
				}
			}
		}
	}
	for k, r := range b.Roots {
		ptrs[k] = &hops[r.Pos]
	}
	return &Block{Kind: b.Kind, Index: b.Index, Reads: b.Reads, Roots: ptrs, Src: b.Src, Parent: b.Parent,
		FirstLine: b.FirstLine, LastLine: b.LastLine, hint: len(hops)}
}

// fusable reports whether the transpose-mm rewrite would rewire a matrix
// multiply of b: whether a transpose of b feeds only left operands of
// matrix multiplies, each once.
func fusable(b *Block) bool {
	for i, h := range b.Order {
		if h.Kind != KindReorg || h.Op != "t" {
			continue
		}
		left := true
		for _, u := range b.Users[i] {
			left = left && u.Kind == KindMatMul && !u.TransA && u.Inputs[0] == h && u.Inputs[1] != h
		}
		if left {
			return true
		}
	}
	return false
}

// isRoot reports whether a hop of kind k is a DAG root, which the build
// neither folds nor deduplicates.
func isRoot(k Kind) bool {
	return k == KindTWrite || k == KindWrite || k == KindPrint || k == KindStop
}

// sameValue reports whether two literal values have the same CSE key.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// collides reports whether slab[i], a copy of b.Order[i] whose inputs
// changed, now has the CSE key of another non-literal hop of the copy:
// same kind, operator and name over the same inputs. Such a hop consumes
// each of slab[i]'s non-literal inputs, so b.Users names it; with literal
// inputs only, any hop of the copy may be one.
func collides(b *Block, slab []Hop, rep []*Hop, i int) bool {
	h := &slab[i]
	same := func(j int) bool {
		g := &slab[j]
		if j == i || rep[j] != g || g.Kind != h.Kind || g.Op != h.Op || g.Name != h.Name ||
			g.TransA != h.TransA || len(g.Inputs) != len(h.Inputs) || isRoot(g.Kind) {
			return false
		}
		for k, in := range h.Inputs {
			if g.Inputs[k] != in {
				return false
			}
		}
		return true
	}
	for k, in := range b.Order[i].Inputs {
		if in != nil && h.Inputs[k].Kind != KindLit {
			for _, u := range b.Users[in.Pos] {
				if same(int(u.Pos)) {
					return true
				}
			}
			return false
		}
	}
	for j := range rep {
		if same(j) {
			return true
		}
	}
	return false
}
