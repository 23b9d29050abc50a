package opt

import (
	"sort"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/lop"
)

// TestSelectRangeExact: the span lop.SelectBlockSpan returns holds the MR
// budget the block was selected under, and every budget in it selects the
// same plan — checked at every other MR grid point inside the span and at
// both its ends — for every leaf block of the paper grid at the smallest
// and a middle CP grid point. enumBlock reuses a plan across its span, so
// a budget comparison that selection makes without recording it fails
// here.
func TestSelectRangeExact(t *testing.T) {
	cc := conf.DefaultCluster()
	opts := DefaultOptions()
	render := func(lb *lop.Block) string { return lop.Explain(&lop.Plan{Blocks: []*lop.Block{lb}}) }
	// heapFor is the smallest heap whose MR budget is at least b.
	heapFor := func(b conf.Bytes) conf.Bytes {
		return conf.Bytes(sort.Search(int(2*cc.MaxHeap()), func(h int) bool { return cc.OpBudget(conf.Bytes(h)) >= b }))
	}
	top := cc.OpBudget(2 * cc.MaxHeap())
	checked := 0
	for _, p := range paperGrid(t) {
		src := EnumGridPoints(p.hp, cc, opts.GridCP, opts.Points)
		srm := EnumGridPoints(p.hp, cc, opts.GridMR, opts.Points)
		for _, rc := range []conf.Bytes{src[0], src[len(src)/2]} {
			res := func(ri conf.Bytes) conf.Resources { return conf.NewResources(rc, ri, 1) }
			for _, hb := range p.hp.LeafBlocks() {
				plans := make([]string, len(srm))
				spans := make([]lop.Span, len(srm))
				for i, ri := range srm {
					var lb *lop.Block
					lb, spans[i] = lop.SelectBlockSpan(hb, cc, res(ri))
					plans[i] = render(lb)
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
							same(h, render(lop.SelectBlock(hb, cc, res(h))))
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
