package opt

import (
	"fmt"
	"sort"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
)

// explainLeaf renders one leaf block's plan through lop.Explain, as the
// plan of a program holding that block alone.
func explainLeaf(lb *lop.Block) string {
	hb := lb.HopBlock
	blocks := make([]*lop.Block, hb.Index+1)
	blocks[hb.Index] = lb
	return lop.Explain(&lop.Plan{Blocks: blocks, HopProgram: &hop.Program{Blocks: []*hop.Block{hb}, NumLeaf: len(blocks)}})
}

// TestSelectRangeExact: the MR span of the region a fresh lop.Table's
// SelectBlock returns holds the MR budget the block was selected under,
// and every budget in it selects the same plan — checked at every other MR
// grid point inside the span and at both its ends — for every leaf block
// of the paper grid at the smallest and a middle CP grid point. enumBlock
// reuses a plan across its span, so a budget comparison that selection
// makes without recording it fails here.
func TestSelectRangeExact(t *testing.T) {
	cc := conf.DefaultCluster()
	opts := DefaultOptions()
	// heapFor is the smallest heap whose MR budget is at least b.
	heapFor := func(b conf.Bytes) conf.Bytes {
		return conf.Bytes(sort.Search(int(2*cc.MaxHeap()), func(h int) bool { return cc.OpBudget(conf.Bytes(h)) >= b }))
	}
	top := cc.OpBudget(2 * cc.MaxHeap())
	checked := 0
	for _, p := range paperGrid(t) {
		src := EnumGridPoints(p.hp, cc, opts.Grid, opts.Points)
		srm := src
		for _, rc := range []conf.Bytes{src[0], src[len(src)/2]} {
			res := func(ri conf.Bytes) conf.Resources { return conf.NewResources(rc, ri, 1) }
			for _, hb := range p.hp.LeafBlocks() {
				plans := make([]string, len(srm))
				spans := make([]lop.Span, len(srm))
				for i, ri := range srm {
					lb, reg := lop.NewTable(cc).SelectBlock(hb, res(ri))
					plans[i], spans[i] = explainLeaf(lb), reg.MR
				}
				for i, ri := range srm {
					span := spans[i]
					if !span.Contains(cc.OpBudget(ri)) {
						t.Fatalf("%s block %d cp %v mr %v: span [%d, %d) misses budget %d",
							p.name, hb.Index, rc, ri, span.Lo, span.Hi, cc.OpBudget(ri))
					}
					same := func(at conf.Bytes, got string) {
						if got != plans[i] {
							t.Fatalf("%s block %d cp %v: plan selected at mr %v differs at mr %v inside span [%d, %d):\n%s\nvs\n%s",
								p.name, hb.Index, rc, ri, at, span.Lo, span.Hi, plans[i], got)
						}
						checked++
					}
					for j, rj := range srm {
						if j != i && span.Contains(cc.OpBudget(rj)) {
							same(rj, plans[j])
						}
					}
					ends := []conf.Bytes{heapFor(span.Lo)}
					if span.Hi <= top {
						ends = append(ends, heapFor(span.Hi)-1)
					}
					for _, h := range ends {
						if span.Contains(cc.OpBudget(h)) {
							same(h, explainLeaf(lop.SelectBlock(hb, cc, res(h), nil)))
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no plan was compared")
	}
}

// TestSelectTableExact: a plan served from a lop.Table equals a fresh
// selection, and the CP span it was recorded with is exact. For every leaf
// block of the paper grid, one table is first warmed by every CP x MR grid
// point at cores 1 and 4; then at every point the plan it serves must
// render as lop.SelectBlock's, its region must hold the point's budgets,
// and fresh selections at both ends of each recorded CP and MR span must
// render the same plan. The searches answer begin, enumBlock and finish
// from such a table, so a CP budget comparison that selection makes
// without recording it fails here.
func TestSelectTableExact(t *testing.T) {
	cc := conf.DefaultCluster()
	opts := DefaultOptions()
	// heapFor is the smallest heap whose operation budget is at least b.
	heapFor := func(b conf.Bytes) conf.Bytes {
		return conf.Bytes(sort.Search(int(2*cc.MaxHeap()), func(h int) bool { return cc.OpBudget(conf.Bytes(h)) >= b }))
	}
	top := cc.OpBudget(2 * cc.MaxHeap())
	// ends lists the heaps at both ends of a span that lie inside it.
	ends := func(sp lop.Span) []conf.Bytes {
		hs := []conf.Bytes{heapFor(sp.Lo)}
		if sp.Hi <= top {
			hs = append(hs, heapFor(sp.Hi)-1)
		}
		var in []conf.Bytes
		for _, h := range hs {
			if sp.Contains(cc.OpBudget(h)) {
				in = append(in, h)
			}
		}
		return in
	}
	checked, endsChecked := 0, 0
	for _, p := range paperGrid(t) {
		src := EnumGridPoints(p.hp, cc, opts.Grid, opts.Points)
		srm := src
		res := func(rc, ri conf.Bytes, cores int) conf.Resources {
			return conf.NewResources(rc, ri, 1).WithCores(cores)
		}
		each := func(fn func(hb *hop.Block, rc, ri conf.Bytes, cores int)) {
			for _, cores := range []int{1, 4} {
				for _, rc := range src {
					for _, ri := range srm {
						for _, hb := range p.hp.LeafBlocks() {
							fn(hb, rc, ri, cores)
						}
					}
				}
			}
		}
		tab := lop.NewTable(cc)
		each(func(hb *hop.Block, rc, ri conf.Bytes, cores int) { tab.SelectBlock(hb, res(rc, ri, cores)) })
		served := map[*lop.Block]string{}
		each(func(hb *hop.Block, rc, ri conf.Bytes, cores int) {
			at := func() string {
				return fmt.Sprintf("%s block %d cores %d cp %v mr %v", p.name, hb.Index, cores, rc, ri)
			}
			lb, reg := tab.SelectBlock(hb, res(rc, ri, cores))
			if !reg.CP.Contains(cc.OpBudget(rc)) || !reg.MR.Contains(cc.OpBudget(ri)) {
				t.Fatalf("%s: region %+v misses the budgets", at(), reg)
			}
			want, seen := served[lb]
			if !seen {
				want = explainLeaf(lb)
				served[lb] = want
				sameAt := func(axis string, h conf.Bytes, got *lop.Block) {
					if explainLeaf(got) != want {
						t.Fatalf("%s: the plan differs at %s heap %v, an end of its recorded span:\n%s\nvs\n%s",
							at(), axis, h, want, explainLeaf(got))
					}
					endsChecked++
				}
				for _, h := range ends(reg.CP) {
					sameAt("cp", h, lop.SelectBlock(hb, cc, res(h, ri, cores), nil))
				}
				for _, h := range ends(reg.MR) {
					sameAt("mr", h, lop.SelectBlock(hb, cc, res(rc, h, cores), nil))
				}
			}
			if got := explainLeaf(lop.SelectBlock(hb, cc, res(rc, ri, cores), nil)); got != want {
				t.Fatalf("%s: the table serves\n%s\nfresh selection gives\n%s", at(), want, got)
			}
			checked++
		})
	}
	if checked == 0 || endsChecked == 0 {
		t.Fatalf("compared %d points and %d span ends", checked, endsChecked)
	}
}
