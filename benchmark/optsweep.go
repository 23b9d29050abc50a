package main

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"math"
	"strings"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/opt"
)

// opt_sweep: the offline decision pipeline, no cache, no server. The
// paper's 5 programs x 5 sizes x 4 shapes on the default 6 x 80 GB
// cluster. A lap is a set-up and one sweep over all of them in a seeded
// order. One op is what `elastic-run -optimize -adapt` does for one problem.

//go:embed expected_digest.txt
var expectedDigest string

// sweepState is what set-up leaves for the timed sweeps.
type sweepState struct {
	cc    conf.Cluster
	probs []problem
	refs  []reference
}

// setupSweep constructs the problems and records the reference decision
// and the baseline costs of each.
func setupSweep() (*sweepState, error) {
	st := &sweepState{cc: conf.DefaultCluster(), probs: sweepProblems()}
	for _, p := range st.probs {
		ref, err := buildReference(st.cc, p)
		if err != nil {
			return nil, err
		}
		st.refs = append(st.refs, ref)
	}
	return st, nil
}

// planCostRatio is the geometric mean over the problems of the optimizer's
// plan cost over the cheapest static baseline's.
func (st *sweepState) planCostRatio() float64 {
	sum := 0.0
	for _, r := range st.refs {
		sum += math.Log(r.PlanCost / r.BaselineCost)
	}
	return math.Exp(sum / float64(len(st.refs)))
}

// decisionDigest hashes every (Res, Cost) in canonical problem order.
func (st *sweepState) decisionDigest() string {
	h := sha256.New()
	for i, r := range st.refs {
		fmt.Fprintf(h, "%s|%s|%x\n", st.probs[i], r.Res.Detailed(), math.Float64bits(r.Cost))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// table renders one line per problem: the chosen configuration, its plan
// cost, the best baseline and its cost, and their ratio.
func (st *sweepState) table() []string {
	rows := make([]string, len(st.refs))
	for i, r := range st.refs {
		rows[i] = fmt.Sprintf("%-26s R*=%-14s cost=%10.1fs  best=%s %10.1fs  ratio=%.3f",
			st.probs[i], r.Res.String(), r.PlanCost, r.BestBaseline, r.BaselineCost, r.PlanCost/r.BaselineCost)
	}
	return rows
}

// sweepTotals accumulates what the pipelines of one pass did. lat holds
// the wall latencies of the correct ops, per problem.
type sweepTotals struct {
	ops, reopts, migrations, mrPlan, mrRun int
	lat                                    [][]time.Duration
}

// sweep runs the problems once in the order of sweep number k.
func (st *sweepState) sweep(res *result, tr *tracer, seed int64, k int, tot *sweepTotals) {
	if tot.lat == nil {
		tot.lat = make([][]time.Duration, len(st.probs))
	}
	for _, i := range sweepOrder(seed, k, len(st.probs)) {
		res.Attempted++
		t0 := time.Now()
		d, err := runPipeline(tr, k*len(st.probs)+i, st.cc, st.probs[i])
		dt := time.Since(t0)
		if err == nil {
			err = checkDecision(st.cc, d, st.refs[i])
		}
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", st.probs[i], err))
			continue
		}
		tot.lat[i] = append(tot.lat[i], dt)
		tot.ops++
		tot.reopts += d.Reopts
		tot.migrations += d.Migrations
		tot.mrPlan += d.MRJobsPlan
		tot.mrRun += d.MRJobsRun
	}
}

// describe records what set-up found out about the decisions themselves.
func (st *sweepState) describe(res *result) {
	res.Metrics["plan_cost_ratio"] = st.planCostRatio()
	digest := st.decisionDigest()
	res.Notes["decision_digest"] = digest
	if digest != strings.TrimSpace(expectedDigest) {
		res.Metrics["opt.decisions_changed"] = 1
	}
	res.Notes["problems"] = st.table()
}

func runOptSweep(cfg runConfig) (*result, error) {
	res := newResult("opt_sweep", cfg)
	if cfg.Trace {
		return tracedSweep(res, cfg)
	}
	var (
		st     *sweepState
		setups []float64
		tot    sweepTotals
		md     memDelta
		stable = true
	)
	for k := 0; k < lapCount(cfg.Seconds); k++ {
		t0 := time.Now()
		lap, err := setupSweep()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		stable = stable && (st == nil || lap.decisionDigest() == st.decisionDigest())
		st = lap
		mp := startMemProbe()
		st.sweep(res, nil, cfg.Seed, k, &tot)
		md.add(mp.delta())
	}
	st.describe(res)
	best := bestOf(tot.lat)
	res.endToEnd(setups, serialRate(best), best, flatten(tot.lat), 95, md)
	res.Metrics["live_heap_mb"] = liveHeapMB()
	if !stable {
		res.failAll(fmt.Errorf("two set-ups recorded different reference decisions"))
	}
	return res, nil
}

// tracedSweep is the traced run: one untraced sweep as the reference, one
// traced sweep, then the layer probes on every problem.
func tracedSweep(res *result, cfg runConfig) (*result, error) {
	st, err := setupSweep()
	if err != nil {
		return nil, err
	}
	st.describe(res)
	var ref, tot sweepTotals
	mp := startMemProbe()
	t0 := time.Now()
	st.sweep(res, nil, cfg.Seed, 0, &ref)
	untraced := time.Since(t0)
	res.procMetrics(mp.delta(), ref.ops)

	tr := newTracer()
	t0 = time.Now()
	st.sweep(res, tr, cfg.Seed, 0, &tot)
	traced := time.Since(t0)
	res.spans = tr.spans
	res.opTail(append(flatten(ref.lat), flatten(tot.lat)...), 95)
	res.traceMetrics(tr.spans, map[string]bool{"pipeline": true}, traced,
		float64(tot.ops)/traced.Seconds(), float64(ref.ops)/untraced.Seconds())

	res.stageMetrics(tr.spans)
	counts := pipelineCounts{mrJobsPlan: tot.mrPlan, mrJobsRun: tot.mrRun}
	for _, r := range st.refs {
		counts.costings += r.Costings
		counts.blockComps += r.BlockComps
	}
	res.countMetrics(counts)
	m := res.Metrics
	m["adapt.reopts"] = float64(tot.reopts)
	m["adapt.migrations"] = float64(tot.migrations)

	samples := make([]sample, len(st.probs))
	for i, p := range st.probs {
		samples[i] = sample{p.Script, p.Scen}
	}
	probe, plainSimUs, err := probeLayers(st.cc, opt.DefaultOptions(), sweepClasses, samples)
	if err != nil {
		return nil, err
	}
	res.merge(probe)

	// What the adapter adds to a run, per op: the adapted runs of the traced
	// sweep against the probe's plain runs of the same problems (means, since
	// the few problems that re-optimize at runtime carry all of it).
	adapted := 0.0
	for _, d := range durations(tr.spans, "rt.run") {
		adapted += d / 1e3
	}
	m["adapt.run_extra_us"] = adapted/float64(max(tot.ops, 1)) - plainSimUs
	return res, nil
}
