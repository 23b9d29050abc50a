package lop

import (
	"elasticml/internal/conf"
	"elasticml/internal/hop"
)

// Table holds the block plans one resource search has selected, each with
// the region of budgets it was selected for. Every decision selection makes
// is a threshold on the block's CP or MR budget (paper §2.1, Appendix B),
// so a block selects the same plan across a whole region, and a search that
// asks for the block again anywhere in it is answered from the table
// without running selection. A table selects for one cluster and is not
// safe for concurrent use; it dies with its search.
type Table struct {
	cc      conf.Cluster
	entries [][]tableEntry // by hop.Block.Index
}

// tableEntry is one selected plan: the block's CP core count, the region
// of its budgets, and the plan.
type tableEntry struct {
	cores int
	reg   Region
	b     *Block
}

// NewTable returns an empty table for searches over the cluster.
func NewTable(cc conf.Cluster) *Table { return &Table{cc: cc} }

// Select is lop.Select answered from the table per generic block.
func (t *Table) Select(p *hop.Program, res conf.Resources) *Plan {
	return newSelector(t.cc, res, t).program(p)
}

// SelectBlock is lop.SelectBlock answered from the table, with the region
// of budgets that select the returned plan.
func (t *Table) SelectBlock(b *hop.Block, res conf.Resources) (*Block, Region) {
	return newSelector(t.cc, res, t).generic(b, nil)
}

// lookup returns the plan selected for the block, cores and budgets, if a
// recorded region holds them; a nil table holds nothing. The latest entry
// is tried first: a search walks its budgets in order, so the region it is
// in is usually the one it entered last.
func (t *Table) lookup(hb *hop.Block, cores int, cp, mr conf.Bytes) (*Block, Region, bool) {
	if t == nil || hb.Index >= len(t.entries) {
		return nil, Region{}, false
	}
	es := t.entries[hb.Index]
	for i := len(es) - 1; i >= 0; i-- {
		e := &es[i]
		if e.cores == cores && e.reg.CP.Contains(cp) && e.reg.MR.Contains(mr) && e.b.HopBlock == hb {
			return e.b, e.reg, true
		}
	}
	return nil, Region{}, false
}

// insert records a plan selected for the block under the region.
func (t *Table) insert(hb *hop.Block, cores int, reg Region, b *Block) {
	if t == nil {
		return
	}
	if n := hb.Index + 1 - len(t.entries); n > 0 {
		t.entries = append(t.entries, make([][]tableEntry, n)...)
	}
	t.entries[hb.Index] = append(t.entries[hb.Index], tableEntry{cores: cores, reg: reg, b: b})
}
