package lop

import (
	"fmt"

	"elasticml/internal/conf"
	"elasticml/internal/hop"
	"elasticml/internal/obs"
)

// SelectTraced is Select plus trace instrumentation: an enclosing
// "lop.select" span with per-generic-block child spans carrying the
// operator-selection and piggybacking outcome (instruction counts, MR jobs,
// packed operators). It is used on the one-shot compile path of
// elastic-run; the optimizer selects through an uninstrumented lop.Table.
func SelectTraced(p *hop.Program, cc conf.Cluster, res conf.Resources, tr *obs.Tracer) *Plan {
	if !tr.SpansEnabled() {
		return Select(p, cc, res)
	}
	sp := tr.Begin(obs.LayerCompile, "lop.select",
		obs.A("cp", res.CP.String()), obs.A("leaf_blocks", p.NumLeaf))
	plan := Select(p, cc, res)
	jobs := 0
	for _, b := range plan.Blocks {
		cp, mr, packed := 0, 0, 0
		for _, in := range b.Instrs {
			if in.Kind == InstrCP {
				cp++
			} else {
				mr++
				packed += len(in.Job.Ops)
			}
		}
		jobs += mr
		bsp := tr.Begin(obs.LayerCompile, fmt.Sprintf("lop.block[%d]", b.HopBlock.Index),
			obs.A("cp_instrs", cp), obs.A("mr_jobs", mr), obs.A("piggybacked_ops", packed),
			obs.A("recompile", b.HopBlock.Recompile))
		bsp.End()
	}
	sp.End(obs.A("mr_jobs", jobs))
	return plan
}

// RecordJobMetrics accumulates plan-shape counters for the metrics
// registry (MR jobs, piggybacked ops, CP instructions).
func RecordJobMetrics(m *obs.Metrics, p *Plan) {
	if m == nil {
		return
	}
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrMR {
				m.Add("lop.mr_jobs", 1)
				m.Add("lop.piggybacked_ops", int64(len(in.Job.Ops)))
			} else {
				m.Add("lop.cp_instrs", 1)
			}
		}
	}
}
