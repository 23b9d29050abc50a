package main

import (
	"bytes"
	"fmt"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/workload"
)

// batch_churn: no server. workload.Run on a contended 2-node x 1 GB
// cluster over seeded traces of 24 malleable mini-batch jobs, each with a
// straggler episode and a node flap, a decision tick every 5 simulated
// seconds, under the fifo, fair and regret policies in turn. One op is one
// whole trace under one policy: the resize paths, requeue, the §5 re-opt
// pass through the width-clamped view and the re-costing memo, and the
// re-simulation after every resize do the work. A lap is a set-up and
// churnTraces traces under each policy.

const churnTraces = 9

// reportBytes marshals a report the way the determinism checks compare it.
func reportBytes(rep *workload.Report) ([]byte, error) {
	var b bytes.Buffer
	err := rep.WriteJSON(&b)
	return b.Bytes(), err
}

// checkChurnReport applies batch_churn's per-op correctness rules.
func checkChurnReport(rep *workload.Report) error {
	switch {
	case rep.Unserved != 0:
		return fmt.Errorf("%d jobs unserved", rep.Unserved)
	case rep.FailedPermanently != 0 || rep.Shed != 0:
		return fmt.Errorf("%d jobs failed permanently, %d shed", rep.FailedPermanently, rep.Shed)
	case !(rep.WastedWork >= 0):
		return fmt.Errorf("wasted work %g is negative", rep.WastedWork)
	}
	return nil
}

// churnOp runs one trace under one policy with workload.Run.
func churnOp(cc conf.Cluster, t churnTrace, p workload.Policy) (*workload.Report, time.Duration, error) {
	t0 := time.Now()
	rep, err := workload.Run(cc, t.Jobs, churnOptions(t, p))
	dt := time.Since(t0)
	if err == nil {
		err = checkChurnReport(rep)
	}
	return rep, dt, err
}

// sameBytes compares two reports of the same op byte for byte.
func sameBytes(first, second *workload.Report) error {
	a, err := reportBytes(first)
	if err != nil {
		return err
	}
	b, err := reportBytes(second)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("two runs of the same trace give different reports")
	}
	return nil
}

// handRun is workload.Run with the event loop in the open: the same
// submissions, chaos schedule and steps, with a span around each call.
func handRun(tr *tracer, op int, cc conf.Cluster, t churnTrace, p workload.Policy) (*workload.Report, int, error) {
	root := tr.begin("trace", -1, op)
	defer tr.end(root)
	svc, err := workload.New(cc, churnOptions(t, p))
	if err != nil {
		return nil, 0, err
	}
	s := tr.begin("workload.submit", root, op)
	for _, j := range t.Jobs {
		if _, err := svc.Submit(j); err != nil {
			tr.end(s)
			return nil, 0, err
		}
	}
	svc.ScheduleChaos()
	tr.end(s)
	steps := 0
	for more := true; more; steps++ {
		s = tr.begin("workload.step", root, op)
		more = svc.Step()
		tr.end(s)
	}
	s = tr.begin("workload.finalize", root, op)
	rep := svc.Finalize()
	tr.end(s)
	return rep, steps - 1, nil
}

// churnSetup runs one trace under each policy, which warms the process up.
// It is the same trace for every seed, so that set-up times compare.
func churnSetup(cc conf.Cluster) error {
	t := genChurnTrace(0, 0)
	for _, p := range churnPolicies {
		if _, _, err := churnOp(cc, t, p); err != nil {
			return fmt.Errorf("warm-up under %s: %w", p, err)
		}
	}
	return nil
}

func runChurn(cfg runConfig) (*result, error) {
	res := newResult("batch_churn", cfg)
	cc := churnCluster()
	if cfg.Trace {
		return tracedChurn(res, cfg, cc)
	}
	var (
		setups   []float64
		md       memDelta
		queueP95 []float64
		ops      = churnTraces * len(churnPolicies)
		perOp    = make([][]time.Duration, ops)
		// first holds each op's report as the first lap wrote it; every
		// later lap must write the same bytes.
		first = make([][]byte, ops)
	)
	for lap := 0; lap < lapCount(cfg.Seconds); lap++ {
		t0 := time.Now()
		if err := churnSetup(cc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		mp := startMemProbe()
		for k := 0; k < churnTraces; k++ {
			t := genChurnTrace(cfg.Seed, k)
			for i, p := range churnPolicies {
				op := k*len(churnPolicies) + i
				res.Attempted++
				rep, dt, err := churnOp(cc, t, p)
				var b []byte
				if err == nil {
					b, err = reportBytes(rep)
				}
				if err == nil && first[op] != nil && !bytes.Equal(first[op], b) {
					err = fmt.Errorf("lap %d gives a different report than lap 0", lap)
				}
				if err != nil {
					res.fail(fmt.Errorf("trace %d under %s: %w", k, p, err))
					continue
				}
				if first[op] == nil {
					first[op] = b
					if p == workload.PolicyFair {
						queueP95 = append(queueP95, rep.P95QueueDelay)
					}
				}
				perOp[op] = append(perOp[op], dt)
			}
		}
		md.add(mp.delta())
	}
	best := bestOf(perOp)
	res.endToEnd(setups, serialRate(best), best, flatten(perOp), 90, md)
	res.Metrics["live_heap_mb"] = liveHeapMB()
	res.Metrics["sched_p95_queue_s"] = mean(queueP95)
	return res, nil
}

// tracedChurn is the traced run: a fixed number of traces, each under
// every policy three ways: workload.Run (the untraced reference), the
// service stepped by hand with a span per Step (the two reports must be
// equal), and its jobs replayed on the bare pipeline.
func tracedChurn(res *result, cfg runConfig, cc conf.Cluster) (*result, error) {
	if err := churnSetup(cc); err != nil {
		return nil, err
	}
	const traces = 6
	tr := newTracer()
	var untraced, traced, bare time.Duration
	var lat []time.Duration
	var queueP95 []float64
	var tot workload.Report
	var counts pipelineCounts
	var md memDelta
	steps, ops := 0, 0
	for k := 0; k < traces; k++ {
		t := genChurnTrace(cfg.Seed, k)
		mp := startMemProbe()
		var reps [3]*workload.Report
		for i, p := range churnPolicies {
			res.Attempted++
			rep, dt, err := churnOp(cc, t, p)
			if err != nil {
				res.fail(fmt.Errorf("trace %d under %s: %w", k, p, err))
				continue
			}
			reps[i] = rep
			lat = append(lat, dt)
			untraced += dt
			ops++
			if p == workload.PolicyFair {
				queueP95 = append(queueP95, rep.P95QueueDelay)
			}
		}
		md.add(mp.delta())
		for i, p := range churnPolicies {
			if reps[i] == nil {
				continue
			}
			t0 := time.Now()
			rep, n, err := handRun(tr, k*len(churnPolicies)+i, cc, t, p)
			traced += time.Since(t0)
			if err == nil {
				err = sameBytes(reps[i], rep)
			}
			if err != nil {
				res.fail(fmt.Errorf("trace %d under %s, stepped by hand: %w", k, p, err))
				continue
			}
			steps += n
			tot.ReoptChecks += rep.ReoptChecks
			tot.ReoptChanges += rep.ReoptChanges
			tot.Grows += rep.Grows
			tot.Shrinks += rep.Shrinks
			tot.Requeues += rep.Requeues
			tot.WastedWork += rep.WastedWork
			tot.Cache.Hits += rep.Cache.Hits
			tot.Cache.Misses += rep.Cache.Misses
			tot.Cache.Insertions += rep.Cache.Insertions
			tot.Cache.Evictions += rep.Cache.Evictions
		}
		// Ring L0 once per trace: what its 24 jobs cost with no service,
		// against a plan cache and memo store that start empty.
		bp := newBarePipeline(cc)
		t0 := time.Now()
		for i, j := range t.Jobs {
			if err := bp.run(tr, k*len(t.Jobs)+i, j.Script, j.Scenario); err != nil {
				return nil, err
			}
		}
		bare += time.Since(t0)
		counts.add(bp.counts)
	}
	res.procMetrics(md, ops)
	res.opTail(lat, 90)
	res.spans = tr.spans
	res.traceMetrics(tr.spans, map[string]bool{"trace": true, "pipeline": true}, traced+bare,
		float64(ops)/traced.Seconds(), float64(ops)/untraced.Seconds())
	res.reportMetrics(&tot)

	jobs := float64(ops * churnJobs)
	stageUs := res.stageMetrics(tr.spans)
	res.countMetrics(counts)
	m := res.Metrics
	m["opt.cache_hit_ratio"] = tot.Cache.HitRate()
	m["sched_p95_queue_s"] = mean(queueP95)
	m["workload.job_us"] = us(traced) / jobs
	// Each trace ran under three policies but was replayed bare once.
	m["workload.overhead_us"] = us(traced)/jobs - stageUs/float64(traces*churnJobs)
	stepNs := sortedCopy(durations(tr.spans, "workload.step"))
	m["workload.step_us_p50"] = percentile(stepNs, 50) / 1e3
	m["workload.step_us_p99"] = percentile(stepNs, 99) / 1e3
	m["workload.steps"] = float64(steps)
	res.Notes["traces"] = traces

	var samples []sample
	for _, j := range genChurnTrace(cfg.Seed, 0).Jobs {
		samples = append(samples, sample{j.Script, j.Scenario})
	}
	probe, _, err := probeLayers(cc, serveOptions(), serveSimCols, samples)
	if err != nil {
		return nil, err
	}
	res.merge(probe)
	return res, nil
}
