package main

import (
	"bytes"
	"fmt"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/lop"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/server"
)

// Layer probes: per-call costs that a span around a stage cannot give,
// because they need allocator counters or a state (a warm memo, a filled
// cache) the workloads only reach in passing. Every workload runs them on
// a sample of its own programs, under its own cluster and options.

// sample is one program instance a probe runs on.
type sample struct {
	Spec scripts.Spec
	Scen datagen.Scenario
}

// probeLayers returns the probe metrics and the mean wall time, in
// microseconds, of one plain simulated run.
func probeLayers(cc conf.Cluster, opts opt.Options, simCols int64, samples []sample) (map[string]float64, float64, error) {
	var (
		costings, mallocs, reuse, memoHits, memoMisses int64
		irNodes, leafBlocks                            int
		optNs                                          time.Duration
		decisionBytes, costUs, costMallocs             []float64
		keyUs, memoUs, simUs                           []float64
		keys                                           []string
	)
	for _, sm := range samples {
		c, err := serveCompile(nil, -1, 0, sm.Spec, sm.Scen)
		if err != nil {
			return nil, 0, err
		}
		nodes, leaves := irSize(c.hp)
		irNodes += nodes
		leafBlocks += leaves

		o := &opt.Optimizer{CC: cc, Opts: opts}
		mp := startMemProbe()
		t0 := time.Now()
		r := o.Optimize(c.hp)
		optNs += time.Since(t0)
		md := mp.delta()
		costings += int64(r.Stats.Costings)
		mallocs += int64(md.Mallocs)
		decisionBytes = append(decisionBytes, float64(md.AllocBytes))

		plan := lop.Select(c.hp, cc, r.Res)
		est := cost.NewEstimator(cc)
		mp = startMemProbe()
		t0 = time.Now()
		est.ProgramCost(plan)
		costUs = append(costUs, us(time.Since(t0)))
		costMallocs = append(costMallocs, float64(mp.delta().Mallocs))

		t0 = time.Now()
		keys = append(keys, opt.CacheKey(sm.Spec.Source, sm.Spec.Params, c.inputs, cc, opts))
		keyUs = append(keyUs, us(time.Since(t0)))

		// The §5 re-costing path: fill a memo under the full cluster, then
		// search again under the width-clamped view a resize would use.
		memo := opt.NewMemo()
		o.OptimizeMemo(c.hp, memo)
		filled := memo.Stats()
		view := &opt.Optimizer{CC: opt.WidthClamped(cc, cc.ContainerSize(r.Res.CP)), Opts: opts}
		t0 = time.Now()
		r2 := view.OptimizeMemo(c.hp, memo)
		memoUs = append(memoUs, us(time.Since(t0)))
		reuse += int64(r2.Stats.ReuseHits)
		after := memo.Stats()
		memoHits += after.Hits - filled.Hits
		memoMisses += after.Misses - filled.Misses

		// The run mutates the program it executes, so simulate a fresh one.
		c2, err := compile(nil, -1, 0, sm.Spec, sm.Scen)
		if err != nil {
			return nil, 0, err
		}
		ip := rt.New(rt.ModeSim, c2.fs, cc, r.Res)
		ip.Compiler = c2.comp
		ip.SimTableCols = simCols
		ip.Out = &bytes.Buffer{}
		plan2 := lop.Select(c2.hp, cc, r.Res)
		t0 = time.Now()
		if err := ip.Run(plan2); err != nil {
			return nil, 0, fmt.Errorf("probe run %s: %w", sm.Spec.Name, err)
		}
		simUs = append(simUs, us(time.Since(t0)))
	}

	cache := opt.NewSharded(len(keys), 0)
	for _, k := range keys {
		cache.Insert(k, conf.NewResources(conf.GB, conf.GB, 1), 1)
	}
	const lookups = 20000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		cache.Lookup(keys[i%len(keys)])
	}
	lookupNs := float64(time.Since(t0).Nanoseconds()) / lookups

	m := map[string]float64{
		"hop.ir_nodes":                 float64(irNodes),
		"hop.leaf_blocks":              float64(leafBlocks),
		"opt.us_per_costing":           us(optNs) / float64(max(costings, 1)),
		"opt.mallocs_per_costing":      float64(mallocs) / float64(max(costings, 1)),
		"opt.alloc_bytes_per_decision": median(decisionBytes),
		"opt.cache_key_us":             median(keyUs),
		"opt.cache_lookup_ns":          lookupNs,
		"opt.memo_replay_us":           median(memoUs),
		"opt.reuse_hits":               float64(reuse),
		"cost.program_cost_us":         median(costUs),
		"cost.mallocs_per_call":        median(costMallocs),
		"rt.sim_run_us":                median(simUs),
	}
	if memoHits+memoMisses > 0 {
		m["opt.memo_hit_ratio"] = float64(memoHits) / float64(memoHits+memoMisses)
	}
	return m, mean(simUs), nil
}

// probeServerParts times the daemon's per-request parts in isolation, on
// the run's own frames: the codec, the admission limiter, and the metrics
// registry every request touches.
func probeServerParts(jobs []server.JobSpecWire, results []*server.JobResult) (map[string]float64, error) {
	const rounds = 2000
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		j := jobs[i%len(jobs)]
		frames := []server.Message{
			&server.SubmitJob{ReqID: uint64(i), Tenant: j.Tenant, Script: j.Script, Size: j.Size, Cols: j.Cols, Sparsity: j.Sparsity},
			results[i%len(results)],
		}
		for _, f := range frames {
			b, err := server.EncodeFrame(f, server.DefaultMaxFrame)
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", f.Type(), err)
			}
			buf.Reset()
			buf.Write(b)
			if _, err := server.ReadFrame(&buf, server.DefaultMaxFrame); err != nil {
				return nil, fmt.Errorf("decode %s: %w", f.Type(), err)
			}
		}
	}
	codecUs := us(time.Since(t0)) / rounds

	lim := server.NewLimiter(server.LimiterPolicy{}, nil)
	const calls = 200000
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		lim.AllowBytes(64)
		lim.AcquireJob()
		lim.ReleaseJob()
	}
	limiterNs := float64(time.Since(t0).Nanoseconds()) / calls

	met := obs.NewMetrics()
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		met.Add("server.frames.in", 1)
		met.Observe("server.request.ms", float64(i&7))
	}
	addNs := float64(time.Since(t0).Nanoseconds()) / calls
	// A live daemon's registry holds about a dozen names.
	for i := 0; i < 12; i++ {
		met.Add(fmt.Sprintf("server.counter.%d", i), 1)
	}
	var snaps []float64
	for i := 0; i < 200; i++ {
		t0 = time.Now()
		met.Snapshot()
		snaps = append(snaps, us(time.Since(t0)))
	}
	return map[string]float64{
		"server.codec_us":    codecUs,
		"server.limiter_ns":  limiterNs,
		"obs.metrics_add_ns": addNs,
		"obs.snapshot_us":    median(snaps),
	}, nil
}
