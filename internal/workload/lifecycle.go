package workload

// The job-lifecycle mechanisms. Each exists once: every path that changes
// what a job runs, where, or until when goes through plan (cache, search),
// start (install a simulated plan), reschedule (the departure event), snap
// (boundary progress), stop / terminate (leaving the cluster, leaving the
// service), and settle (the decisions taken after any cluster change).

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/yarn"
)

// settle is the one decision sequence after a cluster change, shared by the
// event loop and Cancel. §5-style re-optimization comes first: a departure,
// node failure, or capacity restore re-evaluates the running jobs against
// the new cluster state before freed capacity is handed to the queue.
// Admission comes before the policy engine, so freed capacity reaches
// queued tenants before any running job widens into it.
func (s *Service) settle(trig trigger) {
	if trig != trigNone {
		s.reoptimize(trig)
	}
	s.admit()
	s.reconcile()
}

// reschedule gives a running job a new execution window and is the only
// place a departure is scheduled: the generation bump drops the previous
// departure and any booked resize, which was planned against the old
// schedule.
func (s *Service) reschedule(j *job, execStart, finish float64) {
	j.gen++
	j.pendingW = 0
	j.execStart, j.finish = execStart, finish
	s.push(event{at: finish, kind: evDepart, job: j.idx, gen: j.gen})
}

// stop takes a job out of the event schedule and, if it is running, off
// the cluster: its departure, booked resize, or retry goes stale and its
// containers return to the pool. The caller decides what state follows.
func (s *Service) stop(j *job) {
	j.gen++
	j.pendingW = 0
	if j.state == jsRunning {
		s.release(j, j.conts)
		j.conts = nil
		s.running--
	}
}

// terminate moves a job into a terminal state — the only place one is
// assigned — with the state's result flags, report counter, trace span
// (tenant first, then the caller's args), and the DrainFinished entry,
// then folds it into its row: the service drops the job, and with it the
// spec, identity, program and containers.
func (s *Service) terminate(j *job, st jobState, err error, args ...obs.Arg) {
	j.state = st
	r := &j.result
	if err != nil {
		r.Err = err
		r.Error = err.Error()
	}
	s.finished = append(s.finished, j.idx)
	span, counter := "", ""
	switch st {
	case jsDone:
		r.Served = true
		r.Finished = s.now
		r.Latency = s.now - r.Arrival
		r.Config = j.res.String()
		s.tr.Complete(obs.LayerWorkload, "tenant.run", r.Admitted, s.now-r.Admitted,
			obs.A("tenant", r.Tenant), obs.A("program", r.Program),
			obs.A("config", r.Config), obs.A("reopts", r.Reopts))
		s.tr.Metrics().Add("workload.departures", 1)
		s.tr.Metrics().Observe("workload.latency", r.Latency)
	case jsFailed:
		span = "tenant.error"
		args = append(args, obs.A("err", r.Error))
	case jsFailedPerm:
		r.FailedPermanently = true
		span, counter = "workload.failed-permanently", "workload.failed_permanently"
	case jsShed:
		r.Shed = true
		span, counter = "workload.shed", "workload.shed"
	case jsCanceled:
		r.Canceled = true
		span, counter = "workload.cancel", "workload.canceled"
	}
	if span != "" {
		s.tr.Complete(obs.LayerWorkload, span, s.now, 0,
			append([]obs.Arg{obs.A("tenant", r.Tenant)}, args...)...)
	}
	if counter != "" {
		s.tr.Metrics().Add(counter, 1)
	}
	s.dropClaim(j)
	s.rows[j.idx] = row{result: *r, state: st}
	s.jobs[j.idx] = nil
}

// progressAt maps simulated time onto the job's completed-work fraction:
// linear interpolation between the execution (re)start and the scheduled
// finish, on top of the last checkpoint. Re-optimization charges and
// slow-node stretches move the finish time, so the mapping follows the
// job's actual schedule.
func (s *Service) progressAt(j *job) float64 {
	if s.now <= j.execStart || j.finish <= j.execStart || j.id.run.simSeconds <= 0 {
		return j.ckpt // inside a charge window: no new progress
	}
	frac := j.ckpt + (1-j.ckpt)*(s.now-j.execStart)/(j.finish-j.execStart)
	return math.Min(math.Max(frac, j.ckpt), 1)
}

// snapEps absorbs the rounding of the progress interpolation: a job that
// sits on a boundary up to this much short of it has completed it, and
// work past a boundary by no more than this much is not work.
const snapEps = 1e-9

// boundaryFloor floors a completed-work fraction to the last of blocks
// equal boundaries, never regressing below the previous checkpoint.
func boundaryFloor(done, prev float64, blocks int) float64 {
	bf := float64(max(blocks, 1))
	return math.Min(math.Max(math.Floor(done*bf+snapEps)/bf, prev), 1)
}

// snap is the one boundary snap, used when a job is interrupted (container
// loss) and when its width changes: progress commits at the last completed
// boundary — or not at all when keep is false, the naive restart — and the
// partial work beyond it is re-done later, so it is booked as WastedWork
// here and nowhere else. The caller installs the returned checkpoint.
func (s *Service) snap(j *job, keep bool) (ckpt, wasted float64) {
	done := s.progressAt(j)
	if keep {
		ckpt = boundaryFloor(done, j.ckpt, j.id.run.blocks)
	}
	if done-ckpt > snapEps {
		wasted = (done - ckpt) * j.id.run.simSeconds
		j.result.WastedWork += wasted
		s.rep.WastedWork += wasted
	}
	return ckpt, wasted
}

// start installs a plan and its simulated run (fresh, or kept — it needs no
// program) on a job that holds its containers, makes that run the job's
// current one and schedules its departure — the one place that happens.
// Admission is a start from width 0 charged the optimization (or cache hit)
// plus any state restore; a resize keeps the container size and is charged
// resizeCharge.
// Boundary bookkeeping feeds the progress model: epoch-structured programs
// use batch granularity instead of leaf blocks, making every batch boundary
// an elasticity point. The remaining work divides by the (sub-linear) width
// speedup — width 1 is exactly the rigid schedule — and stretches by the AM
// node's speculation-capped slowdown.
func (s *Service) start(p *planReq, sr simResult, charge float64) {
	j := p.j
	j.res, j.cost = p.res, p.cost
	j.id.run = sr
	j.id.run.live, j.id.run.res = s.live(), p.res
	exec := sr.simSeconds * (1 - j.ckpt) / speedup(len(j.conts)) * j.slow
	s.reschedule(j, s.now+charge, s.now+charge+exec)
	j.result.Outputs = sr.outputs
	j.result.Prints = sr.prints
	j.result.OutputHash = sr.hash
	j.result.Config = j.res.String()
}

// optOpts returns the optimizer options shared by every optimization the
// service performs. They are part of the cache key, so they must be
// identical for key-equal lookups to be semantically equal.
func (s *Service) optOpts() opt.Options {
	o := opt.DefaultOptions()
	o.Points = gridPoints
	return o
}

// planReq is one optimization problem — a job's identity under a cluster
// view — and, after plan, its answer.
//
// key is the plan-cache key the answer came from. Every view plan sees is
// the live view with only MaxAlloc lowered, and the cluster's own MaxAlloc
// is constant, so the key fixes the identity, the live view and, through
// the entry, the configuration — the whole input of simulate. That is why
// run may keep a simulated outcome on the entry under this key.
type planReq struct {
	j    *job
	view conf.Cluster
	key  string
	res  conf.Resources
	cost float64
	hit  bool
	err  error // a miss whose program failed to compile: no answer
}

// plan resolves optimization problems through the shared plan cache — the
// only path to the optimizer. A hit needs only the job's identity; a miss
// under the key solve searched (for Prepare or batch Run's window) takes
// that answer (the key fixes the program, the view and the options, so it
// is what the search below would return); any other miss needs the job's
// program for the optimizer, compiles it if the job has none yet, and
// searches. Requests resolve in order and the inserts follow the whole
// batch, so two same-key requests of one batch both miss. A source that
// does not compile gets no answer (r.err).
func (s *Service) plan(reqs ...*planReq) {
	opts := s.optOpts()
	for _, r := range reqs {
		id := r.j.id
		r.key = id.cacheKey(r.view, opts)
		prep := id.prep
		id.prep = nil // the job's first plan consumes it, whatever it finds
		if r.res, r.cost, r.hit = s.cache.Lookup(r.key); r.hit {
			continue
		}
		if prep != nil && prep.key == r.key {
			r.res, r.cost = prep.res, prep.cost
			s.tr.Metrics().Add("workload.prep_used", 1)
			continue
		}
		if prep != nil {
			s.tr.Metrics().Add("workload.prep_stale", 1)
		}
		if r.err = s.program(r.j); r.err != nil {
			continue
		}
		out := (&opt.Optimizer{CC: r.view, Opts: opts}).Optimize(id.prog.hp)
		r.res, r.cost = out.Res, out.Cost
	}
	for _, r := range reqs {
		if !r.hit && r.err == nil {
			s.cache.Insert(r.key, r.res, r.cost)
		}
	}
}

// run yields the simulated run of each planned request. A sim-mode request
// starts from its job's current run (or the one solve simulated) if that
// ran under this live view and configuration, else from its plan-cache
// entry's; any other is simulated on the job's program. Either way a
// sim-mode outcome is then attached to the entry, if it is still there.
// Value-mode jobs run real matrices staged by their own Setup, so they
// always execute. The attaches follow the whole batch, like plan's inserts:
// same-key requests of one batch all simulate.
func (s *Service) run(reqs ...*planReq) []simResult {
	sims := make([]simResult, len(reqs))
	for i, p := range reqs {
		id := p.j.id
		o, kept := s.cache.Outcome(p.key)
		if k := id.run; k.outcome != nil && k.live == s.live() && resEqual(k.res, p.res) {
			o, kept = k.outcome, true
		}
		if kept && id.mode == rt.ModeSim {
			sims[i] = simResult{outcome: o.(*outcome), reused: true}
			s.tr.Metrics().Add("workload.sim_reuses", 1)
		} else if sims[i].err = s.program(p.j); sims[i].err == nil {
			s.tr.Metrics().Add("workload.sim_runs", 1)
			sims[i] = simulate(id, s.live(), p.res)
		}
	}
	for i, p := range reqs {
		if sims[i].err == nil && p.j.id.mode == rt.ModeSim {
			s.cache.Attach(p.key, sims[i].outcome)
		}
	}
	return sims
}

// placement is place's verdict on the queue head.
type placement int

const (
	placed      placement = iota // holds its containers; simulate and start its plan
	dropped                      // reached a terminal state (shed, error)
	noRoom                       // does not fit right now; the policy may bypass it
	clusterFull                  // no node has even a minimum allocation free
)

// admit drains the admission queue as far as capacity allows. Under FIFO
// and fair-share the head of the queue blocks the tail; a bypass policy
// skips jobs it cannot place and re-queues them in order. The round's
// admissions are run (simulated, or taken off their plan-cache entries)
// and started in admission order.
func (s *Service) admit() {
	var adm []*planReq
	var skipped []int
	for len(s.queue) > 0 {
		head := s.queue[0]
		a, p := s.place(s.jobs[head])
		if p == clusterFull || p == noRoom && !s.pol.bypass {
			break
		}
		s.queue = s.queue[1:]
		switch p {
		case placed:
			adm = append(adm, a)
		case noRoom:
			skipped = append(skipped, head)
		}
	}
	if len(skipped) > 0 {
		s.queue = append(skipped, s.queue...)
	}

	sims := s.run(adm...)
	for i, a := range adm {
		j := a.j
		if err := sims[i].err; err != nil {
			s.stop(j)
			s.terminate(j, jsFailed, err)
			continue
		}
		charge := optCharge
		if j.result.CacheHit {
			charge = hitCharge
		}
		if j.result.Requeues > 0 {
			// Every admission after the first follows a container loss:
			// state restore from the last checkpoint (cheap) or from
			// scratch (the naive full re-load, paper §4.1).
			if s.opts.Recovery.Kind == RecoveryCheckpoint {
				charge += checkpointCharge
			} else {
				charge += requeueCharge
			}
		}
		s.start(a, sims[i], charge)
		s.tr.Complete(obs.LayerWorkload, "tenant.queue", j.result.Arrival, j.result.QueueDelay,
			obs.A("tenant", j.result.Tenant))
		s.tr.Metrics().Add("workload.admissions", 1)
		if j.result.CacheHit {
			s.tr.Metrics().Add("workload.admission_cache_hits", 1)
		}
		if j.result.Degraded {
			s.tr.Metrics().Add("workload.degraded_admissions", 1)
		}
	}
}

// place tries to put the queue head on the cluster. The job is planned
// under the *unclamped* live cluster first (the stable cache key shared
// across cluster load states); only if that configuration's container does
// not fit the largest free chunk is it re-planned under a clamped cluster
// (degraded admission). The circuit breaker gates every attempt: while
// open, first-time admissions are shed or forced onto a fallback plan
// clamped to half the free slice, so a recovering cluster is not
// immediately re-packed to the brim. The width is the policy's admission
// width; a step-down policy narrows it toward MinContainers when the full
// width does not fit — a voluntary shrink trading width for queue priority.
func (s *Service) place(j *job) (*planReq, placement) {
	gate := s.brk.gate(s.now)
	if gate == gateShed && j.result.Requeues == 0 {
		// Failure victims retrying under their budget are never shed:
		// they already hold service state worth finishing.
		s.terminate(j, jsShed, fmt.Errorf("%w: %s arrived during an open breaker", ErrAdmissionShed, j.result.Tenant))
		return nil, dropped
	}
	chunk := s.rm.MaxFreeChunk()
	if chunk < s.cc.MinAlloc {
		return nil, clusterFull
	}
	a := &planReq{j: j, view: s.live()}
	if j.id == nil && s.pf != nil {
		s.takeClaim(j)
	}
	if j.id == nil && j.spec.prep != nil {
		// Prepare identified the job off the sequencer, or batch Run's
		// window claimed it (and, on a miss, compiled and searched it off
		// the loop): the first attempt takes that over.
		j.id, j.spec.prep = j.spec.prep, nil
	} else if j.id == nil {
		// The first attempt stages the job's inputs to learn its identity;
		// every later one plans from it. Neither compiles: a program that
		// does not compile fails at its first cache miss, below.
		var err error
		if j.id, err = identify(j.spec); err != nil {
			s.terminate(j, jsFailed, err)
			return nil, dropped
		}
	}
	s.plan(a)
	degraded := false
	// clamp re-plans with the allocation ceiling lowered and adopts the
	// result if its container fits the free chunk.
	clamp := func(maxAlloc conf.Bytes) bool {
		r := &planReq{j: j, view: s.live()}
		r.view.MaxAlloc = maxAlloc
		s.plan(r)
		a.err = r.err
		if a.err != nil || s.cc.ContainerSize(r.res.CP) > chunk {
			return false
		}
		a.key, a.res, a.cost, a.hit = r.key, r.res, r.cost, a.hit && r.hit
		degraded = true
		return true
	}
	breakerDegraded := a.err == nil && gate == gateDegrade && clamp(max(chunk/2, s.cc.MinAlloc))
	fits := a.err == nil && (s.cc.ContainerSize(a.res.CP) <= chunk || clamp(chunk))
	switch {
	case a.err != nil: // a miss whose program does not compile
		s.terminate(j, jsFailed, a.err)
		return nil, dropped
	case !fits:
		return nil, noRoom // not even the clamped optimum fits right now
	}

	cs := s.cc.ContainerSize(a.res.CP)
	want := s.admitWidth(j, cs)
	w := want
	conts, err := s.rm.AllocateGroup(w, cs)
	for errors.Is(err, yarn.ErrNoCapacity) && s.pol.stepDown && w > j.spec.Elastic.MinContainers {
		w = max(w-j.spec.Elastic.Step, j.spec.Elastic.MinContainers)
		conts, err = s.rm.AllocateGroup(w, cs)
	}
	if errors.Is(err, yarn.ErrOverMaxAllocation) {
		// The chosen plan can never be granted on this cluster — a
		// permanent, typed condition, not a transient shortage.
		s.terminate(j, jsFailed, err)
		return nil, dropped
	}
	if err != nil {
		return nil, noRoom // ErrNoCapacity: retry at the next event
	}

	j.state = jsRunning
	j.conts = conts
	j.slow = s.slowdown(s.rm.NodeSpeed(conts[0].Node))
	r := &j.result
	r.Width = w
	if r.MinWidth == 0 || w < r.MinWidth {
		r.MinWidth = w
	}
	if w < want {
		r.Narrowed = true
		s.rep.VoluntaryShrinks++
		s.tr.Metrics().Add("workload.voluntary_shrinks", 1)
	}
	r.Admitted = s.now
	if r.Requeues == 0 {
		// Admission latency is the wait for the FIRST admission;
		// failure-driven re-admissions extend Latency, not QueueDelay.
		r.QueueDelay = s.now - r.Arrival
	}
	r.CacheHit, r.Degraded = a.hit, degraded
	if breakerDegraded {
		r.BreakerDegraded = true
		s.rep.BreakerDegraded++
		s.tr.Metrics().Add("workload.breaker_degraded", 1)
	}
	s.brk.admitted(s.now)
	s.running++
	s.rep.MaxConcurrent = max(s.rep.MaxConcurrent, s.running)
	return a, placed
}

// reoptimize re-evaluates every running job against the current cluster
// state (paper §5: re-optimization on cluster change) in one plan batch.
func (s *Service) reoptimize(trig trigger) {
	if s.running == 0 || s.live().Nodes == 0 {
		return
	}
	var reqs []*planReq
	for _, j := range s.resident() {
		if j == nil || j.state != jsRunning {
			continue
		}
		s.rep.ReoptChecks++
		view := s.live()
		if len(j.conts) > 1 {
			// A multi-container job keeps its granted container size: the
			// search runs under a width-clamped view, so the chosen plan
			// always fits the containers it already holds.
			view = opt.WidthClamped(s.live(), j.conts[0].Mem)
		}
		reqs = append(reqs, &planReq{j: j, view: view})
	}
	s.plan(reqs...)
	for _, r := range reqs {
		if r.err == nil {
			s.applyReopt(r.j, r.res, r.cost, trig)
		}
	}
	s.tr.Metrics().Add("workload.reopt_passes", 1)
}

// applyReopt installs a changed configuration on a running job: swap the
// AM container if the size changed, charge the re-optimization overhead,
// and rescale the remaining execution time by the cost ratio and by the
// speed of the node the AM container now runs on.
func (s *Service) applyReopt(j *job, res conf.Resources, cost float64, trig trigger) {
	if resEqual(res, j.res) || !s.refit(j, s.cc.ContainerSize(res.CP)) {
		return
	}
	rem := max(j.finish-s.now, 0)
	if j.cost > 0 && cost > 0 {
		rem *= cost / j.cost
	}
	eff := s.slowdown(s.rm.NodeSpeed(j.conts[0].Node))
	rem *= eff / j.slow
	j.slow = eff
	oldRes := j.res
	j.res, j.cost = res, cost
	s.reschedule(j, j.execStart, s.now+reoptCharge+rem)
	j.result.Reopts++
	s.brk.recordChurn(s.now)
	switch trig {
	case trigFailure:
		s.rep.FailureReopts++
	case trigRestore:
		s.rep.RestoreReopts++
	default:
		s.rep.DepartureReopts++
	}
	s.tr.Complete(obs.LayerWorkload, "workload.reopt", s.now, reoptCharge,
		obs.A("tenant", j.result.Tenant), obs.A("trigger", trig.String()),
		obs.A("from", oldRes.String()), obs.A("to", res.String()))
	s.tr.Metrics().Add("workload.reopt_changes", 1)
}

// refit makes a running job's allocation hold containers of size need and
// reports whether it does. Multi-container jobs were planned under a
// width-clamped view, so the new plan fits the containers they hold and the
// allocation never changes; a single-container job swaps its AM container.
func (s *Service) refit(j *job, need conf.Bytes) bool {
	am := j.conts[0]
	if len(j.conts) > 1 || need == am.Mem {
		return need <= am.Mem // defensive: never outgrow the granted containers
	}
	// The job's own container is released first, so its memory counts
	// toward the free slice it may grow into.
	freeSame, _ := s.rm.FreeOnNode(am.Node)
	if need > am.Mem+freeSame && need > s.rm.MaxFreeChunk() {
		return false // no room to grow — keep the current configuration
	}
	if err := s.rm.Release(am.ID); err != nil {
		return false
	}
	cont, err := s.rm.Allocate(need)
	if err == nil {
		j.conts[0] = cont
		return true
	}
	// Defensive: reclaim the slot just freed and keep the old configuration.
	if cont, err = s.rm.Allocate(am.Mem); err == nil {
		j.conts[0] = cont
		return false
	}
	// Cannot even re-take the old slot (impossible in the sequential loop):
	// route the job through the recovery policy like any other container
	// loss, but skip the backoff — the container was lost to bookkeeping,
	// not a node, so the job rejoins the queue now.
	j.conts = nil
	s.failRunning(j, "reopt")
	if j.state == jsBackoff {
		j.state = jsQueued
		s.queue = append([]int{j.idx}, s.queue...)
	}
	return false
}

// resEqual compares two resource configurations field-wise.
func resEqual(a, b conf.Resources) bool {
	if a.CP != b.CP || a.CPCores != b.CPCores || len(a.MR) != len(b.MR) {
		return false
	}
	for i := range a.MR {
		if a.MR[i] != b.MR[i] {
			return false
		}
	}
	return true
}

// program makes sure the job has its compiled program, compiling it over
// the staged inputs the first time one is consumed, and reports why not.
func (s *Service) program(j *job) (err error) {
	if j.id.prog == nil {
		j.id.prog, err = s.compile(j.id)
	}
	return err
}

// errPanic marks an error recovered from a panic.
var errPanic = errors.New("panic")

// recovered, deferred, turns a panic into the function's error: Setup is
// tenant code, and no source may take the service down.
func recovered(err *error) {
	if rec := recover(); rec != nil {
		*err = fmt.Errorf("%w: %v", errPanic, rec)
	}
}

// identify stages a job's inputs on a fresh file system and reads off the
// identity — the input metadata among it — that the cache key covers. It
// reads nothing but the job's spec and compiles nothing: the compiler never
// writes the file system, so the listing is what it would be after one.
// It is the one place a value-mode job's Setup runs: once per job, in
// Prepare, in batch Run's claim or at the job's first placement — and at
// that placement again if Prepare or the claim's worker could not finish.
func identify(spec JobSpec) (id *identity, err error) {
	defer recovered(&err)
	fs := hdfs.New()
	if spec.Source != "" {
		id = &identity{mode: rt.ModeValue, source: spec.Source, params: spec.Params, fs: fs}
		if spec.Setup != nil {
			spec.Setup(fs)
		}
	} else {
		id = &identity{mode: rt.ModeSim, source: spec.Script.Source, params: spec.Script.Params, fs: fs}
		datagen.Describe(fs, spec.Scenario)
	}
	for _, name := range fs.List() {
		f, statErr := fs.Stat(name)
		if statErr != nil {
			continue
		}
		id.inputs = append(id.inputs, opt.InputMeta{
			Path: name, Rows: f.Rows, Cols: f.Cols, NNZ: f.NNZ,
			Format: f.Format.String(),
		})
	}
	return id, nil
}

// compileTable keeps each source's parse and block templates while some job's
// program holds them, for every compile of every service in the process:
// prefetch workers and daemon sessions compile concurrently, and a
// program is the same whichever compile built a template first. Its
// Trace, nil but in benchmarks, gets the compile counters, which depend on
// the garbage collector and so stay out of a service's deterministic ones.
var compileTable = new(hop.Table)

// compile builds an identity's program from source over its staged inputs,
// off the parse and templates compileTable keeps for the source; a failed or
// panicking build yields no program.
func (s *Service) compile(id *identity) (c *compiled, err error) {
	defer recovered(&err)
	s.tr.Metrics().Add("workload.compiles", 1)
	src, err := compileTable.Parse(id.source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	comp := hop.NewCompiler(id.fs, id.params)
	hp, err := comp.CompileScript(src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return &compiled{comp: comp, hp: hp}, nil
}

// simulate executes an identity's program under a cluster view and a
// configuration on the runtime and folds the run into an outcome (plus, for
// value-mode jobs, the written matrices). The run gets its own view of the
// staged file system and a fork of the compiler, so the program stays as it
// was. It reads no service state and emits no trace events: it is a pure
// function of its arguments, so solve runs it on a session goroutine or a
// prefetch worker beside Step (program_test runs it concurrently over one
// program).
func simulate(id *identity, view conf.Cluster, res conf.Resources) (r simResult) {
	defer recovered(&r.err)
	c, fs := id.prog, id.fs.Clone()
	plan := lop.Select(c.hp, view, res)
	ip := rt.New(id.mode, fs, view, res)
	ip.Compiler = c.comp.Fork(fs)
	ip.SimTableCols = simTableCols
	var out bytes.Buffer
	ip.Out = &out
	if err := ip.Run(plan); err != nil {
		r.err = err
		return r
	}
	o := &outcome{simSeconds: ip.SimTime, prints: out.String(), blocks: c.hp.NumLeaf}
	if ep, ok := opt.DetectEpochs(c.hp); ok {
		o.epochs, o.blocks = ep.Epochs, ep.Boundaries()
	}
	o.blocks = max(o.blocks, 1)
	var paths []string
	dims := map[string][3]int64{}
	for _, name := range fs.List() {
		if !strings.HasPrefix(name, "/out") {
			continue
		}
		f, err := fs.Stat(name)
		if err != nil {
			continue
		}
		paths = append(paths, name)
		dims[name] = [3]int64{f.Rows, f.Cols, f.NNZ}
		if f.Data != nil {
			if r.outputs == nil {
				r.outputs = map[string]*matrix.Matrix{}
			}
			r.outputs[name] = f.Data
		}
	}
	sort.Strings(paths)
	o.hash = outputHash(paths, r.outputs, dims, o.prints)
	r.outcome = o
	return r
}
