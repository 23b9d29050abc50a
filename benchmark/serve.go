package main

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
	"elasticml/internal/server"
	"elasticml/internal/workload"
)

// serve_hot and serve_cold: an in-process daemon on 127.0.0.1:0 over the
// default cluster. Connection A is a closed-loop submitter that keeps a
// window of 8 jobs in flight and submits the next job when the oldest
// result frame arrives; connection B is an open-loop prober that asks for
// the status of a finished job at 50 Hz and times each probe from when it
// was due. serve_hot repeats 300 plan-cache keys, so nearly every
// admission is a cache hit; serve_cold never repeats a key, so every
// admission enumerates the grid on the sequencer goroutine all tenants
// share. A lap is a fresh daemon, its warm-up, and the same seeded jobs.

const (
	window      = 8
	probePeriod = 20 * time.Millisecond
	jobTimeout  = 60 * time.Second
	pings       = 500
)

// serveKind is what differs between the two daemon workloads.
type serveKind struct {
	// stream deals the timed jobs; warm returns the warm-up jobs, which are
	// part of set-up.
	stream func(seed int64) *jobStream
	warm   func(seed int64) []server.JobSpecWire
	// group is a number of consecutive jobs that do about the same mix of
	// work, short enough that a stall of the machine spoils few of them;
	// laps are whole groups long, and ops_per_s is the median group's rate.
	group int
	// lapJobs is the number of timed jobs of one lap: about lapSeconds'
	// worth when the benchmark was written. A traced run sends half as many
	// through each ring.
	lapJobs     int
	tailCeiling float64
}

var serveKinds = map[string]serveKind{
	"serve_hot": {
		stream: hotStream,
		// One whole deck: after it every key of the timed stream is cached.
		warm:        func(seed int64) []server.JobSpecWire { return hotStream(seed + 99991).take(len(hotScripts) * hotColsN) },
		group:       60,
		lapJobs:     3 * len(hotScripts) * hotColsN,
		tailCeiling: 99,
	},
	"serve_cold": {
		stream: func(seed int64) *jobStream { return coldStream(seed, coldColsLo, coldColsN) },
		// Three decks on columns no timed job uses: the process warms up,
		// the plan cache learns nothing the timed jobs could hit.
		warm:        func(seed int64) []server.JobSpecWire { return coldStream(seed+99991, coldWarmCols, 45).take(45) },
		group:       len(coldScripts) * len(coldSizes),
		lapJobs:     20 * len(coldScripts) * len(coldSizes),
		tailCeiling: 95,
	},
}

// toJobSpec builds the service job a wire job stands for.
func toJobSpec(w server.JobSpecWire, arrival float64) (workload.JobSpec, error) {
	sc, ok := scripts.ByName(w.Script)
	if !ok {
		return workload.JobSpec{}, fmt.Errorf("unknown script %q", w.Script)
	}
	return workload.JobSpec{Tenant: w.Tenant, Script: sc, Scenario: datagen.New(w.Size, w.Cols, w.Sparsity), Arrival: arrival}, nil
}

// daemon is an in-process elastic-serve with its two client connections.
type daemon struct {
	srv    *server.Server
	served chan error
	a, b   *server.Client
}

// serviceOptions are the daemon's service options: the defaults plus a
// metrics-only tracer, as elastic-serve configures them.
func serviceOptions() (workload.Options, *obs.Metrics) {
	o := workload.DefaultOptions()
	tr := obs.New(false)
	o.Trace = tr
	return o, tr.Metrics()
}

func startDaemon(cc conf.Cluster) (*daemon, error) {
	o, met := serviceOptions()
	seq, err := server.NewSequencer(cc, o, 0)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.NewServer(seq, server.ServerConfig{}, met), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		seq.Drain()
		return nil, err
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	if d.a, err = server.Dial(ln.Addr().String()); err == nil {
		d.b, err = server.Dial(ln.Addr().String())
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// warmDaemon starts a daemon and serves it the warm-up: a lap's set-up.
func warmDaemon(cc conf.Cluster, warm []server.JobSpecWire) (*daemon, error) {
	d, err := startDaemon(cc)
	if err != nil {
		return nil, err
	}
	warmed := newResult("warm-up", runConfig{})
	driveTCP(d, warmed, nil, warm, noProbe)
	if warmed.Failed > 0 {
		d.stop()
		return nil, fmt.Errorf("warm-up: %v", warmed.Errors)
	}
	return d, nil
}

// stop drains the daemon and returns its final report and op log.
func (d *daemon) stop() (*workload.Report, *server.RecordLog) {
	rep := d.srv.Shutdown(30 * time.Second)
	<-d.served
	for _, c := range []*server.Client{d.a, d.b} {
		if c != nil {
			c.Close()
		}
	}
	return rep, d.srv.Log()
}

// clock is the time source of the open-loop prober; tests substitute one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// probeStats are the latencies of an open-loop probe series, each from
// the instant the probe was due, and how late each probe was sent.
type probeStats struct {
	lat, late []time.Duration
	errs      int
}

// openLoop calls call once per period until stop reports true. The k-th
// call is due at start + k*period whatever the earlier calls took, and its
// latency counts from then: a stall delays the calls behind it, and that
// wait is part of what a client on a schedule sees.
func openLoop(ck clock, period time.Duration, stop func() bool, call func() error) probeStats {
	var ps probeStats
	start := ck.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if d := due.Sub(ck.Now()); d > 0 {
			ck.Sleep(d)
		}
		if stop() {
			return ps
		}
		sent := ck.Now()
		if err := call(); err != nil {
			ps.errs++
			continue
		}
		ps.lat = append(ps.lat, ck.Now().Sub(due))
		ps.late = append(ps.late, sent.Sub(due))
	}
}

// load is what one pass of a job stream through the daemon measured.
type load struct {
	results    []*server.JobResult
	accept     []time.Duration
	turnaround []time.Duration
	doneAt     []time.Duration // since the start of the pass
	elapsed    time.Duration
	shed, errs int
	// cacheHits counts the results whose admission was a plan-cache hit.
	cacheHits int
	probes    probeStats
}

func (l *load) rate() float64 { return float64(len(l.turnaround)) / l.elapsed.Seconds() }

// add appends what a later pass measured; doneAt stays per pass.
func (l *load) add(o *load) {
	l.accept = append(l.accept, o.accept...)
	l.turnaround = append(l.turnaround, o.turnaround...)
	l.elapsed += o.elapsed
	l.shed += o.shed
	l.errs += o.errs
	l.cacheHits += o.cacheHits
	l.probes.lat = append(l.probes.lat, o.probes.lat...)
	l.probes.late = append(l.probes.late, o.probes.late...)
}

// groupRates returns the completions per second of each consecutive group
// of the given number of completions.
func (l *load) groupRates(group int) []float64 {
	at := append([]time.Duration(nil), l.doneAt...)
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	var rates []float64
	prev := time.Duration(0)
	for g := group; g <= len(at); g += group {
		rates = append(rates, float64(group)/(at[g-1]-prev).Seconds())
		prev = at[g-1]
	}
	return rates
}

type jobDone struct {
	at  time.Time
	res *server.JobResult
}

// checkResult applies the per-job correctness rule of the daemon
// workloads: a result frame that says served and carries no error.
func checkResult(r *server.JobResult) error {
	switch {
	case r == nil:
		return fmt.Errorf("no result frame")
	case r.Flags&server.FlagServed == 0:
		return fmt.Errorf("job %d not served (flags %#x)", r.Job, r.Flags)
	case r.Error != "":
		return fmt.Errorf("job %d: %s", r.Job, r.Error)
	}
	return nil
}

// driveTCP is ring L3: the closed-loop submitter on connection A, with the
// prober on connection B unless probeJob is noProbe. It submits the jobs,
// then waits for the results still in flight.
func driveTCP(d *daemon, res *result, tr *tracer, jobs []server.JobSpecWire, probeJob int) *load {
	l := &load{}
	var stopProbe atomic.Bool
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		if probeJob == noProbe {
			return
		}
		l.probes = openLoop(wallClock{}, probePeriod, stopProbe.Load, func() error {
			s := tr.begin("tcp.probe", -1, -1)
			_, err := d.b.Status(uint32(probeJob))
			tr.end(s)
			return err
		})
	}()

	type pending struct {
		t0   time.Time
		done chan jobDone
	}
	var win []pending
	start := time.Now()
	settle := func(p pending) {
		jd := <-p.done
		if err := checkResult(jd.res); err != nil {
			res.fail(err)
			return
		}
		l.turnaround = append(l.turnaround, jd.at.Sub(p.t0))
		l.doneAt = append(l.doneAt, jd.at.Sub(start))
		if jd.res.Flags&server.FlagCacheHit != 0 {
			l.cacheHits++
		}
		if len(l.results) < 64 {
			l.results = append(l.results, jd.res)
		}
	}
	for n, spec := range jobs {
		if len(win) == window {
			settle(win[0])
			win = win[1:]
		}
		res.Attempted++
		root := tr.begin("tcp.job", -1, n)
		acc := tr.begin("tcp.accept", root, n)
		t0 := time.Now()
		_, _, ch, err := d.a.Submit(spec)
		tr.end(acc)
		if err != nil {
			tr.end(root)
			if err == server.ErrOverloaded {
				l.shed++
			} else {
				l.errs++
			}
			res.fail(fmt.Errorf("submit: %w", err))
			continue
		}
		l.accept = append(l.accept, time.Since(t0))
		done := make(chan jobDone, 1)
		go func() {
			var r *server.JobResult
			select {
			case r = <-ch:
			case <-time.After(jobTimeout):
			}
			tr.end(root)
			done <- jobDone{time.Now(), r}
		}()
		win = append(win, pending{t0, done})
	}
	for _, p := range win {
		settle(p)
	}
	l.elapsed = time.Since(start)
	stopProbe.Store(true)
	<-probed
	l.errs += l.probes.errs
	return l
}

// driveSequencer is ring L2: the same closed loop straight into
// Sequencer.Submit with a result callback, no TCP.
func driveSequencer(seq *server.Sequencer, res *result, tr *tracer, jobs []server.JobSpecWire) time.Duration {
	var win []chan workload.TenantResult
	settle := func(done chan workload.TenantResult) {
		if r := <-done; !r.Served || r.Error != "" {
			res.fail(fmt.Errorf("sequencer: %s not served: %s", r.Tenant, r.Error))
		}
	}
	start := time.Now()
	for n, spec := range jobs {
		if len(win) == window {
			settle(win[0])
			win = win[1:]
		}
		res.Attempted++
		done := make(chan workload.TenantResult, 1)
		root := tr.begin("sequencer.job", -1, n)
		sub := tr.begin("sequencer.submit", root, n)
		_, _, err := seq.Submit(spec, func(_ int, r workload.TenantResult) {
			tr.end(root)
			done <- r
		})
		tr.end(sub)
		if err != nil {
			tr.end(root)
			res.fail(fmt.Errorf("sequencer submit: %w", err))
			continue
		}
		win = append(win, done)
	}
	for _, done := range win {
		settle(done)
	}
	return time.Since(start)
}

// handService is ring L1: a workload.Service stepped by hand the way the
// sequencer steps it. Pending submissions go in first, each arriving at
// max(Frontier, last arrival + gap); otherwise the event loop advances one
// batch. Nothing here depends on wall time, so its counters repeat exactly.
type handService struct {
	svc         *workload.Service
	lastArrival float64
	steps       int
	cacheHits   int
}

func newHandService(cc conf.Cluster) (*handService, error) {
	o, _ := serviceOptions()
	svc, err := workload.New(cc, o)
	if err != nil {
		return nil, err
	}
	svc.ScheduleChaos()
	return &handService{svc: svc, lastArrival: -server.DefaultGap}, nil
}

func (h *handService) drive(res *result, tr *tracer, jobs []server.JobSpecWire) time.Duration {
	start := time.Now()
	root := tr.begin("service", -1, -1)
	finished := map[int]bool{}
	var win []int
	for next := 0; next < len(jobs) || len(win) > 0; {
		for len(win) > 0 && finished[win[0]] {
			delete(finished, win[0])
			win = win[1:]
		}
		if next == len(jobs) && len(win) == 0 {
			break
		}
		if next < len(jobs) && len(win) < window {
			res.Attempted++
			at := max(h.svc.Frontier(), h.lastArrival+server.DefaultGap)
			s := tr.begin("workload.submit", root, next)
			spec, err := toJobSpec(jobs[next], at)
			var idx int
			if err == nil {
				idx, err = h.svc.Submit(spec)
			}
			tr.end(s)
			next++
			if err != nil {
				res.fail(fmt.Errorf("service submit: %w", err))
				continue
			}
			h.lastArrival = at
			win = append(win, idx)
			continue
		}
		s := tr.begin("workload.step", root, -1)
		more := h.svc.Step()
		tr.end(s)
		if !more {
			res.fail(fmt.Errorf("service: event queue drained with %d jobs in flight", len(win)))
			break
		}
		h.steps++
		for _, idx := range h.svc.DrainFinished() {
			finished[idx] = true
			r, _ := h.svc.Result(idx)
			if !r.Served || r.Error != "" {
				res.fail(fmt.Errorf("service: %s not served: %s", r.Tenant, r.Error))
			}
			if r.CacheHit {
				h.cacheHits++
			}
		}
	}
	tr.end(root)
	return time.Since(start)
}

// replayBare is ring L0: every job on the bare pipeline, one after another.
func replayBare(bp *barePipeline, res *result, tr *tracer, jobs []server.JobSpecWire) time.Duration {
	start := time.Now()
	for n, w := range jobs {
		res.Attempted++
		spec, err := toJobSpec(w, 0)
		if err == nil {
			err = bp.run(tr, n, spec.Script, spec.Scenario)
		}
		if err != nil {
			res.fail(fmt.Errorf("bare pipeline: %w", err))
		}
	}
	return time.Since(start)
}

// checkReplay feeds the daemon's op log to server.Replay; the replayed
// report must equal the live one byte for byte.
func checkReplay(live *workload.Report, log *server.RecordLog) error {
	replayed, err := server.Replay(log)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := sameBytes(live, replayed); err != nil {
		return fmt.Errorf("replay of the op log: %w", err)
	}
	return nil
}

// probeJob is the job the prober asks about: the first warm-up job, which
// has finished before the timed part starts. noProbe runs without a prober.
const probeJob, noProbe = 0, -1

func runServe(name string, cfg runConfig) (*result, error) {
	kind := serveKinds[name]
	res := newResult(name, cfg)
	cc := conf.DefaultCluster()
	warm := kind.warm(cfg.Seed)
	stream := kind.stream(cfg.Seed)
	if cfg.Trace {
		return tracedServe(res, kind, cc, warm, stream)
	}

	jobs := stream.take(kind.lapJobs)
	var (
		setups    []float64
		rates     []float64
		total     load
		md        memDelta
		replayErr error
	)
	for lap, laps := 0, lapCount(cfg.Seconds); lap < laps; lap++ {
		t0 := time.Now()
		d, err := warmDaemon(cc, warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		mp := startMemProbe()
		l := driveTCP(d, res, nil, jobs, probeJob)
		md.add(mp.delta())
		rates = append(rates, l.groupRates(kind.group)...)
		total.add(l)
		if lap < laps-1 {
			d.stop()
			continue
		}
		// The last lap's daemon is the one whose heap (its jobs, op log and
		// cache) and whose op log are checked: replaying one costs as much
		// as serving it did.
		res.Metrics["live_heap_mb"] = liveHeapMB()
		live, log := d.stop()
		replayErr = checkReplay(live, log)
		res.reportMetrics(live)
	}
	res.endToEnd(setups, median(rates), total.turnaround, total.turnaround, kind.tailCeiling, md)
	res.loadMetrics(&total)
	if replayErr != nil {
		res.failAll(replayErr)
	}
	return res, nil
}

// tracedServe is the traced run, the onion. The daemon first serves n
// jobs untraced for a reference rate, then n more with spans on: ring L3.
// The same n jobs then go through the sequencer without TCP (L2), through
// a service stepped by hand (L1) and over the bare pipeline (L0), each
// ring fresh and warmed like the daemon was.
func tracedServe(res *result, kind serveKind, cc conf.Cluster, warm []server.JobSpecWire, stream *jobStream) (*result, error) {
	d, err := warmDaemon(cc, warm)
	if err != nil {
		return nil, err
	}
	n := kind.lapJobs / 2
	mp := startMemProbe()
	ref := driveTCP(d, res, nil, stream.take(n), probeJob)
	res.procMetrics(mp.delta(), len(ref.turnaround))

	jobs := stream.take(n)
	tr := newTracer()
	l3 := driveTCP(d, res, tr, jobs, probeJob)
	var pingUs []float64
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := d.b.Ping(); err != nil {
			l3.errs++
			continue
		}
		pingUs = append(pingUs, us(time.Since(t0)))
	}
	live, log := d.stop()
	if err := checkReplay(live, log); err != nil {
		res.failAll(err)
	}

	o, _ := serviceOptions()
	seq, err := server.NewSequencer(cc, o, 0)
	if err != nil {
		return nil, err
	}
	driveSequencer(seq, newResult("warm-up", runConfig{}), nil, warm)
	l2 := driveSequencer(seq, res, tr, jobs)
	seq.Drain()

	hs, err := newHandService(cc)
	if err != nil {
		return nil, err
	}
	hs.drive(newResult("warm-up", runConfig{}), nil, warm)
	hs.steps, hs.cacheHits = 0, 0
	l1 := hs.drive(res, tr, jobs)
	rep := hs.svc.Finalize()

	bp := newBarePipeline(cc)
	replayBare(bp, newResult("warm-up", runConfig{}), nil, warm)
	bp.counts = pipelineCounts{}
	l0 := replayBare(bp, res, tr, jobs)

	res.spans = tr.spans
	res.traceMetrics(tr.spans, map[string]bool{"pipeline": true, "service": true}, l0+l1, l3.rate(), ref.rate())
	res.loadMetrics(l3)
	res.opTail(append(ref.turnaround, l3.turnaround...), kind.tailCeiling)
	res.reportMetrics(rep)
	// The hand-stepped ring's hit ratio, because it repeats exactly.
	res.Metrics["opt.cache_hit_ratio"] = float64(hs.cacheHits) / float64(len(jobs))

	perJob := func(d time.Duration) float64 { return us(d) / float64(len(jobs)) }
	stageUs := res.stageMetrics(tr.spans)
	res.countMetrics(bp.counts)
	m := res.Metrics
	m["workload.job_us"] = perJob(l1)
	m["workload.overhead_us"] = perJob(l1) - stageUs/float64(len(jobs))
	steps := sortedCopy(durations(tr.spans, "workload.step"))
	m["workload.step_us_p50"] = percentile(steps, 50) / 1e3
	m["workload.step_us_p99"] = percentile(steps, 99) / 1e3
	m["workload.steps"] = float64(hs.steps)
	m["server.sequencer_job_us"] = perJob(l2)
	m["server.sequencer_overhead_us"] = perJob(l2) - perJob(l1)
	m["server.wire_overhead_us"] = perJob(l3.elapsed) - perJob(l2)
	m["server.ping_p50_us"] = median(pingUs)
	res.Notes["ring_job_us"] = map[string]float64{
		"L0_bare_pipeline": perJob(l0), "L1_service": perJob(l1), "L2_sequencer": perJob(l2), "L3_tcp": perJob(l3.elapsed),
	}
	res.Notes["traced_jobs"] = len(jobs)
	var samples []sample
	for _, w := range jobs[:min(len(jobs), 30)] {
		spec, err := toJobSpec(w, 0)
		if err != nil {
			return nil, err
		}
		samples = append(samples, sample{spec.Script, spec.Scenario})
	}
	probe, _, err := probeLayers(cc, serveOptions(), serveSimCols, samples)
	if err != nil {
		return nil, err
	}
	res.merge(probe)
	if len(l3.results) > 0 {
		parts, err := probeServerParts(jobs, l3.results)
		if err != nil {
			return nil, err
		}
		res.merge(parts)
	}
	return res, nil
}

// loadMetrics records what the clients of a TCP pass saw.
func (r *result) loadMetrics(l *load) {
	acc := summarize(l.accept, 99)
	pr := summarize(l.probes.lat, 99)
	late := summarize(l.probes.late, 99)
	r.Metrics["accept_p50_ms"] = acc.P50Ms
	r.Metrics["probe_p50_ms"] = pr.P50Ms
	r.Metrics["probe_tail_ms"] = pr.TailMs
	r.Metrics["probe.lateness_p99_ms"] = late.TailMs
	r.Metrics["opt.cache_hit_ratio"] = float64(l.cacheHits) / float64(max(len(l.turnaround), 1))
	r.Metrics["server.shed"] = float64(l.shed)
	r.Metrics["server.errors"] = float64(l.errs)
	r.Notes["accept_latency"] = acc
	r.Notes["probe_latency"] = pr
	r.Notes["probe_lateness"] = late
}

// reportMetrics records the counters of a workload.Report. They count
// from the start of the service, so a daemon's include its warm-up.
func (r *result) reportMetrics(rep *workload.Report) {
	m := r.Metrics
	m["opt.cache_insertions"] = float64(rep.Cache.Insertions)
	m["opt.cache_evictions"] = float64(rep.Cache.Evictions)
	m["workload.reopt_checks"] = float64(rep.ReoptChecks)
	m["workload.reopt_changes"] = float64(rep.ReoptChanges)
	if rep.ReoptChecks > 0 {
		m["workload.reopt_useful_ratio"] = float64(rep.ReoptChanges) / float64(rep.ReoptChecks)
	}
	m["workload.grows"] = float64(rep.Grows)
	m["workload.shrinks"] = float64(rep.Shrinks)
	m["workload.requeues"] = float64(rep.Requeues)
	m["workload.wasted_work_s"] = rep.WastedWork
}
