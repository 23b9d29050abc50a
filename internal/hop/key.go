package hop

import (
	"encoding/binary"
	"math"
)

// AppendKey appends to dst a canonical encoding of everything in p that
// operator selection, costing and the resource optimizer read: the block
// tree with each block's header fields, and every hop's fields with its
// operands named by walk position. Hop IDs and the source linkage (Src,
// the header expressions, Source, Params) are left out, so two
// compilations of the same blocks against the same metadata encode to the
// same bytes. The encoding is decodable, so equal bytes mean equal
// optimizer inputs.
func AppendKey(dst []byte, p *Program) []byte {
	e := keyEncoder{buf: dst, pos: make(map[*Hop]int64)}
	e.ints(int64(p.NumLeaf))
	e.blocks(p.Blocks)
	return e.buf
}

type keyEncoder struct {
	buf []byte
	pos map[*Hop]int64 // walk position of every hop already written
}

func (e *keyEncoder) ints(vs ...int64) {
	for _, v := range vs {
		e.buf = binary.AppendVarint(e.buf, v)
	}
}

func (e *keyEncoder) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	}
}

func (e *keyEncoder) strs(vs ...string) {
	for _, s := range vs {
		e.ints(int64(len(s)))
		e.buf = append(e.buf, s...)
	}
}

func (e *keyEncoder) blocks(bs []*Block) {
	e.ints(int64(len(bs)))
	for _, b := range bs {
		e.ints(int64(b.Kind), int64(b.Index), b.KnownIters, int64(b.FirstLine), int64(b.LastLine))
		e.bools(b.Recompile, b.Parallel)
		e.strs(b.Var)
		e.hops(b.Roots)
		e.hops([]*Hop{b.Pred, b.From, b.To})
		e.blocks(b.Then)
		e.blocks(b.Else)
		e.blocks(b.Body)
	}
}

// hops writes the hops reachable from hs that are not yet written, each
// behind a 1 byte and a 0 byte after the last, then hs as references.
func (e *keyEncoder) hops(hs []*Hop) {
	for _, h := range hs {
		e.hop(h)
	}
	e.bools(false)
	e.refs(hs)
}

func (e *keyEncoder) refs(hs []*Hop) {
	e.ints(int64(len(hs)))
	for _, h := range hs {
		if h == nil {
			e.ints(-1)
		} else {
			e.ints(e.pos[h])
		}
	}
}

func (e *keyEncoder) hop(h *Hop) {
	if h == nil {
		return
	}
	if _, ok := e.pos[h]; ok {
		return
	}
	for _, in := range h.Inputs {
		e.hop(in)
	}
	e.pos[h] = int64(len(e.pos))
	e.bools(true, h.KnownVal, h.TransA)
	e.ints(int64(h.Kind), int64(h.DataType), int64(math.Float64bits(h.Value)),
		h.Rows, h.Cols, h.NNZ, int64(h.OutMem), int64(h.OpMem))
	e.strs(h.Op, h.Name, h.StrValue)
	e.refs(h.Inputs)
}
