package workload

import (
	"container/heap"
	"errors"
	"fmt"
	"sync/atomic"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/matrix"
	"elasticml/internal/mr"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/yarn"
)

// evKind orders same-time events: chaos (node loss, restore, slow episodes)
// is observed before the departures it might invalidate, width changes land
// after departures freed the capacity they were promised, retry
// re-admissions join the queue after resizes freed theirs, arrivals are
// admitted last against the settled cluster state, and the periodic
// elasticity tick observes everything that happened at its instant.
type evKind int

const (
	evChaos evKind = iota
	evDepart
	evResize
	evRetry
	evArrive
	evTick
)

// event is one discrete-event queue entry.
type event struct {
	at    float64
	kind  evKind
	seq   int // insertion order, the final tie-break
	job   int // arrive/depart/resize/retry
	gen   int // depart/resize/retry: job generation this event was scheduled for
	chaos int // chaos: index into Service.chaos
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// jobState is a tenant job's lifecycle position. The live states come
// first, so terminal() is one comparison.
type jobState int

const (
	jsPending    jobState = iota // submitted, arrival event not yet fired
	jsQueued                     // arrived, waiting for admission
	jsRunning                    // holds its containers until its departure
	jsBackoff                    // failure victim waiting out its retry backoff
	jsDone                       // served to completion
	jsFailed                     // compile or execution error — never served
	jsFailedPerm                 // retry budget exhausted — terminal failure
	jsShed                       // rejected by the circuit breaker
	jsUnserved                   // still queued when the simulation drained
	jsCanceled                   // terminated on client request
)

var jobStateNames = [...]string{"pending", "queued", "running", "backoff", "done",
	"failed", "failed-permanently", "shed", "unserved", "canceled"}

func (st jobState) String() string {
	if st < 0 || int(st) >= len(jobStateNames) {
		return "unknown"
	}
	return jobStateNames[st]
}

// terminal reports whether the state is final.
func (st jobState) terminal() bool { return st >= jsDone }

// trigger names what changed the cluster in an event batch; the strongest
// one labels the §5 re-optimization pass that follows.
type trigger int

const (
	trigNone trigger = iota
	trigDeparture
	trigRestore
	trigFailure
)

var triggerNames = [...]string{"", "departure", "restore", "failure"}

func (t trigger) String() string { return triggerNames[t] }

// job is the service-side state of one tenant submission.
type job struct {
	idx   int
	spec  JobSpec
	state jobState

	res  conf.Resources
	cost float64
	// conts are the job's granted containers (the AM first); len(conts) is
	// the job's current width. Rigid jobs always hold exactly one.
	conts []yarn.Container
	// pendingW is a booked width change's target (0 = none): set when a
	// resize event is pushed, cleared when it fires or the job is
	// rescheduled out from under it.
	pendingW int

	// gen invalidates stale departure/resize/retry events after anything
	// rescheduled the job or took it off the cluster.
	gen    int
	finish float64
	// execStart is when execution (re)started after admission charges; the
	// progress model interpolates between execStart and finish.
	execStart float64
	// ckpt is the completed-work fraction snapshotted at the last boundary;
	// a restart resumes from here (always 0 under naive restart).
	ckpt float64
	// retries counts container losses charged against the retry budget.
	retries int
	// slow is the effective slowdown of the AM container's node (1 = full
	// speed), after the speculation cap.
	slow float64
	// id is the job's problem identity, held from its first placement
	// attempt until terminate; everything retained per job hangs off it,
	// the current run's duration and boundary structure among it.
	id *identity
	// claim is batch Run's claim on the job, from the window's top-up
	// until its first placement attempt takes it (prefetch.go).
	claim *claim

	result TenantResult
}

// row is what the service keeps of a terminal job: its report row and the
// state it ended in.
type row struct {
	result TenantResult
	state  jobState
}

// identity is a job's optimization problem: everything the plan-cache key
// derives from besides the cluster view. identify reads it
// off the job's spec and staged inputs — no compile — and, because a JobSpec
// is immutable, it holds until the job terminates. A §5 re-optimization
// check, a blocked queue head and a job whose plan and simulated run are
// both on a plan-cache entry need only this — none of them touches a program.
type identity struct {
	mode   rt.Mode
	source string
	params map[string]interface{}
	inputs []opt.InputMeta

	// fs holds the inputs identify staged, and prog the program the job's
	// first consumer of one compiled over them (see program).
	fs   *hdfs.FS
	prog *compiled

	// key is the cache key under view, the one view the job was last keyed
	// under: a running job is re-checked under the same view until the
	// cluster changes, so one entry saves re-hashing the source per check.
	view conf.Cluster
	key  string

	// run is the job's current run, with the live view and configuration
	// start installed it under (or, before the job's first start, the run
	// solve simulated under its view and answer): a plan that keeps both
	// starts from it.
	run simResult

	// prep is the search solve ran on a cache miss (its key, res and cost),
	// until the job's first plan consumes it.
	prep *planReq
}

// cacheKey returns the identity's plan-cache key under a cluster view.
func (id *identity) cacheKey(view conf.Cluster, opts opt.Options) string {
	if id.key == "" || id.view != view {
		id.view, id.key = view, opt.CacheKey(id.source, id.params, id.inputs, view, opts)
	}
	return id.key
}

// compiled is one job's program over its staged inputs, built once and
// never changed by a run (TestSimulateLeavesProgramUntouched): hp stays
// bit-identical through lop.Select and Interp.Run, because dynamic
// recompilation builds new blocks on a fork of comp that keeps its own ID
// counter, and the run writes its /out files to its own view of the file
// system. So any number of runs, on any goroutines, may share one.
type compiled struct {
	comp *hop.Compiler
	hp   *hop.Program
}

// outcome is what the service keeps of one simulated run: the duration, the
// print stream, the folded fingerprint of everything written, and the
// program's boundary structure. blocks is the boundary granularity: the
// program's leaf-block count, or epochs*batches when the program carries
// statically-known epoch/batch for-loops (opt.DetectEpochs), and epochs is
// 0 for one-shot programs. Epoch jobs grow at epoch boundaries and shrink
// mid-epoch, snapping to the last completed batch.
// simulate is a pure function of (identity, live view, configuration),
// all fixed by the key of the plan that chose the configuration (see
// planReq.key), so a sim-mode outcome is kept on that plan-cache entry,
// and on the job as its current run, and the next plan of the same inputs
// starts from it without a program. Compact, map-free, immutable.
type outcome struct {
	simSeconds     float64
	prints         string
	hash           string // TenantResult.OutputHash
	epochs, blocks int
}

// simResult is one job's simulated execution: the outcome, plus, for
// value-mode jobs, the matrices written, and what start ran it under.
type simResult struct {
	*outcome
	reused  bool // off a plan-cache entry or the job's own run: nothing was executed
	outputs map[string]*matrix.Matrix
	err     error
	live    conf.Cluster
	res     conf.Resources
}

// Service is the multi-tenant elastic job service. Create with New, drive
// with Run (or Submit and Step); a Service is single-use, and one goroutine
// drives it. Prepare is the one method other goroutines may call meanwhile.
type Service struct {
	cc   conf.Cluster
	opts Options
	pol  policy
	rm   *yarn.ResourceManager
	// view is cc with Nodes shrunk to the RM's live node count: setLive
	// stores it, the loop reads it through live, and Prepare, which runs
	// off the goroutine that steps the service, loads it too.
	view  atomic.Pointer[conf.Cluster]
	cache *opt.Cache // nil when caching is off; every method is nil-safe
	tr    *obs.Tracer
	brk   *breaker

	// jobs holds each job, by submission index, until it is terminal;
	// terminate then folds it into its row and clears the entry, so a
	// finished job keeps its report row and nothing else.
	jobs []*job
	// rows holds, by submission index, each folded job's row (zero while
	// the job is resident).
	rows []row
	// oldest indexes the oldest job not yet terminal; the passes over live
	// jobs start there (resident), so an old service does not pay per
	// settle for every job it ever finished.
	oldest int
	queue  []int // FIFO of job indices awaiting admission
	evs    eventHeap
	seq    int
	chaos  []fault.NodeEvent // expanded chaos schedule, indexed by event.chaos
	// chaosScheduled guards ScheduleChaos against double expansion when a
	// live frontend schedules chaos at construction.
	chaosScheduled bool
	// finished accumulates job indices that reached a terminal state since
	// the last DrainFinished call — the live frontend's result stream.
	finished []int

	// now is the simulated clock, the frontier of processed time: no event
	// is ever scheduled before it.
	now          float64
	usedIntegral float64 // ∫ allocated bytes dt
	capIntegral  float64 // ∫ live capacity bytes dt
	running      int

	rep Report

	// pf is batch Run's prefetch window, nil outside Run.
	pf *prefetcher
}

// New builds a service over a fresh simulated cluster, with its plan cache
// (CacheEntries < 0 disables caching).
func New(cc conf.Cluster, o Options) (*Service, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if err := o.Elastic.validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	s := &Service{
		cc:   cc,
		opts: o,
		pol:  newPolicy(o.Policy),
		rm:   yarn.NewResourceManager(cc),
		tr:   o.Trace,
		brk:  newBreaker(o.Breaker),
	}
	s.setLive(cc.Nodes)
	if o.CacheEntries >= 0 {
		s.cache = opt.NewCache(o.CacheEntries)
	}
	return s, nil
}

// Run admits and executes the job list to completion and returns the
// report. The simulation is deterministic: identical inputs yield
// byte-identical reports.
func Run(cc conf.Cluster, jobs []JobSpec, o Options) (*Report, error) {
	s, err := New(cc, o)
	if err != nil {
		return nil, err
	}
	return s.Run(jobs)
}

// Run executes one workload batch. Knowing the batch, it prepares the next
// jobs ahead of the event loop on GOMAXPROCS goroutines (prefetch.go),
// which it stops before it returns; the report is what stepping the same
// submissions by hand gives.
func (s *Service) Run(specs []JobSpec) (*Report, error) {
	if err := validate(specs, s.cc.Nodes, s.opts.Chaos); err != nil {
		return nil, err
	}
	first := len(s.jobs)
	for _, spec := range specs {
		s.submit(spec)
	}
	s.ScheduleChaos()
	stop := s.startPrefetch(first)
	defer stop()
	for s.Step() {
	}
	return s.Finalize(), nil
}

// submit registers one job and pushes its arrival event, returning the
// job's index.
func (s *Service) submit(spec JobSpec) int {
	i := len(s.jobs)
	spec.Elastic = spec.Elastic.normalized()
	j := &job{idx: i, spec: spec, slow: 1}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = tenantName(i)
	}
	j.result = TenantResult{
		Tenant:  tenant,
		Program: spec.name(),
		Arrival: spec.Arrival,
	}
	if spec.Source == "" {
		j.result.Scenario = fmt.Sprintf("%s/%s", spec.Scenario.Size, spec.Scenario.ShapeName())
	}
	s.jobs = append(s.jobs, j)
	s.rows = append(s.rows, row{})
	s.push(event{at: spec.Arrival, kind: evArrive, job: i})
	return i
}

// Submit adds one job to a live service and returns its index. Unlike the
// batch Run entry point, arrivals stream in one at a time; the caller (the
// network sequencer) must assign monotone arrival times at or after the
// simulation frontier, so the discrete-event loop never travels backwards.
func (s *Service) Submit(spec JobSpec) (int, error) {
	if err := spec.check(); err != nil {
		return 0, fmt.Errorf("workload: submit %q: %w", spec.Tenant, err)
	}
	if spec.Arrival < s.now {
		return 0, fmt.Errorf("workload: submit %q: arrival %g before frontier %g", spec.Tenant, spec.Arrival, s.now)
	}
	return s.submit(spec), nil
}

// Prepare does the part of a submission that reads no job and no event:
// it identifies the spec, keys it under the published live view and, if
// the plan cache has no entry for that key, compiles the program, runs a
// cold search and, for a sim-mode job, simulates the configuration found
// under that view. It returns the spec carrying the result, for Submit.
// The sequencer's run commits the simulated run only if the job is
// admitted under the same live view and configuration (a flap in between,
// or a clamped or breaker-degraded admission, simulates again there). A
// value-mode job is never simulated here: its Setup's matrices run on the
// goroutine that steps the service. Prepare is safe to call from any
// goroutine while another steps the service — it asks the cache only Has,
// which moves no counter and no recency, so the service's own lookups,
// inserts and reports are what they would be without it. A spec Prepare
// could not finish (a failed identify or compile, a panic at any stage)
// comes back as it went in: the job is identified and planned on the
// goroutine that steps the service, as an unprepared one is, and fails
// there the same way. A simulate that fails without a panic leaves the
// answer without a run, and the job's run fails on the sequencer.
func (s *Service) Prepare(spec JobSpec) JobSpec {
	if id, err := s.prepare(spec); err == nil {
		spec.prep = id
	}
	return spec
}

// prepare is Prepare's work, and why it could not finish.
func (s *Service) prepare(spec JobSpec) (id *identity, err error) {
	defer recovered(&err)
	if id, err = identify(spec); err != nil {
		return nil, err
	}
	if s.cache.Has(id.cacheKey(*s.view.Load(), s.optOpts())) {
		return id, nil
	}
	if err = s.solve(id); err != nil {
		return nil, err
	}
	return id, nil
}

// solve is the work of a cache miss that reads no service state, for an
// identity keyed under its view: it compiles the program, runs a cold
// search under the view and, for a sim-mode job, simulates the answer
// there, keeping all three on the identity for the job's first placement
// to commit. Prepare and batch Run's prefetch workers run it beside the
// loop; a panic at any stage comes back as the error.
func (s *Service) solve(id *identity) (err error) {
	defer recovered(&err)
	if id.prog, err = s.compile(id); err != nil {
		return err
	}
	out := (&opt.Optimizer{CC: id.view, Opts: s.optOpts()}).Optimize(id.prog.hp)
	id.prep = &planReq{key: id.key, res: out.Res, cost: out.Cost}
	if id.mode == rt.ModeSim {
		sr := simulate(id, id.view, out.Res)
		if errors.Is(sr.err, errPanic) {
			return sr.err
		}
		if sr.err == nil {
			id.run = sr
			id.run.live, id.run.res = id.view, out.Res
		}
	}
	return nil
}

// setLive sets the live node count: it is the one writer of the view the
// loop and Prepare read.
func (s *Service) setLive(nodes int) {
	v := s.cc
	v.Nodes = nodes
	s.view.Store(&v)
}

// live returns the live cluster view.
func (s *Service) live() conf.Cluster { return *s.view.Load() }

// ScheduleChaos expands and enqueues the chaos schedule — a pure function
// of the options — plus the first elasticity tick. Run calls it
// after the batch submits; a live frontend calls it once at construction,
// before any submission. Later calls are no-ops.
func (s *Service) ScheduleChaos() {
	if s.chaosScheduled {
		return
	}
	s.chaosScheduled = true
	s.chaos = s.opts.Chaos.Events(s.cc.Nodes)
	for i, ne := range s.chaos {
		s.push(event{at: ne.At, kind: evChaos, chaos: i})
	}
	if s.opts.Elastic.Tick > 0 {
		s.push(event{at: s.opts.Elastic.Tick, kind: evTick})
	}
}

// Step processes the next event-time batch and reports whether any events
// remain. The batch's events only mutate cluster and job state (nodes,
// containers, the queue); every decision that follows from the change —
// the §5 re-optimization pass, queue admission, policy resizes — is taken
// once, by settle. The event loop is the only mutator of service state, so
// the per-step outcome is a pure function of the submission and step
// history.
func (s *Service) Step() bool {
	if len(s.evs) == 0 {
		return false
	}
	batch := s.popBatch()
	s.advanceTo(batch[0].at)
	trig, ticked := trigNone, false
	var retryJoins []int
	for _, ev := range batch {
		switch ev.kind {
		case evChaos:
			trig = max(trig, s.applyChaos(ev))
		case evDepart:
			trig = max(trig, s.applyDepart(ev))
		case evResize:
			s.applyResize(ev)
		case evRetry:
			if j := s.jobs[ev.job]; j != nil && j.state == jsBackoff && ev.gen == j.gen {
				j.state = jsQueued
				retryJoins = append(retryJoins, j.idx)
			}
		case evArrive:
			s.applyArrive(ev)
		case evTick:
			ticked = true
		}
	}
	// Failure victims rejoin at the queue front (they already waited
	// their turn), in the order their retries were scheduled.
	if len(retryJoins) > 0 {
		s.queue = append(retryJoins, s.queue...)
	}
	s.settle(trig)
	if ticked && s.opts.Elastic.Tick > 0 && len(s.resident()) > 0 {
		s.push(event{at: s.now + s.opts.Elastic.Tick, kind: evTick})
	}
	return true
}

// resident returns, in submission order, every job that is not in a
// terminal state (and nil for the folded ones submitted after the oldest
// of them): terminal states are final, so the watermark only advances.
func (s *Service) resident() []*job {
	for s.oldest < len(s.jobs) && s.jobs[s.oldest] == nil {
		s.oldest++
	}
	return s.jobs[s.oldest:]
}

// status returns one job's result and state: the resident job's, or its
// row's once the job is folded.
func (s *Service) status(idx int) (*TenantResult, jobState) {
	if j := s.jobs[idx]; j != nil {
		return &j.result, j.state
	}
	return &s.rows[idx].result, s.rows[idx].state
}

// Finalize marks every job the drained event queue can no longer serve and
// builds the report. After Finalize the service accepts no further work.
func (s *Service) Finalize() *Report {
	// The event queue drained; whatever is still waiting can never be
	// admitted (the shrunken cluster has no chunk for the FIFO head and no
	// further departures, failures, or restores will change that).
	for _, j := range s.resident() {
		if j != nil && j.state != jsRunning {
			s.terminate(j, jsUnserved, nil)
		}
	}

	rep := s.rep
	rep.Tenants = make([]TenantResult, len(s.rows))
	for i := range rep.Tenants {
		r, _ := s.status(i)
		rep.Tenants[i] = *r
	}
	rep.Cache = s.cache.Stats()
	rep.BreakerTrips = s.brk.tripCount()
	rep.finalize(s.usedIntegral, s.capIntegral)
	if m := s.tr.Metrics(); m != nil {
		m.SetGauge("workload.utilization", rep.Utilization)
		m.SetGauge("workload.cache_hit_rate", rep.Cache.HitRate())
		m.SetGauge("workload.p95_latency", rep.P95Latency)
	}
	return &rep
}

// Frontier returns the high-water mark of processed simulated time. Live
// submissions must arrive at or after it.
func (s *Service) Frontier() float64 { return s.now }

// Result returns a copy of one job's current result; ok is false for an
// out-of-range index.
func (s *Service) Result(idx int) (TenantResult, bool) {
	if idx < 0 || idx >= len(s.jobs) {
		return TenantResult{}, false
	}
	r, _ := s.status(idx)
	return *r, true
}

// State returns one job's lifecycle state name ("queued", "running",
// "done", ...); ok is false for an out-of-range index.
func (s *Service) State(idx int) (string, bool) {
	if idx < 0 || idx >= len(s.jobs) {
		return "", false
	}
	_, st := s.status(idx)
	return st.String(), true
}

// DrainFinished returns the indices of jobs that reached a terminal state
// since the last call, in transition order — the live frontend's per-step
// result stream.
func (s *Service) DrainFinished() []int {
	f := s.finished
	s.finished = nil
	return f
}

// Cancel terminates a job on client request. Queued, backoff, and pending
// jobs are removed from the admission machinery; a running job releases its
// containers, which immediately re-opens admission for the queue (like any
// departure, the freed capacity triggers a re-optimization pass). Returns
// false if the job is unknown or already terminal.
func (s *Service) Cancel(idx int) bool {
	if idx < 0 || idx >= len(s.jobs) || s.jobs[idx] == nil {
		return false
	}
	j := s.jobs[idx]
	trig := trigNone
	if j.state == jsRunning {
		trig = trigDeparture
	}
	for k, q := range s.queue {
		if q == idx {
			s.queue = append(s.queue[:k], s.queue[k+1:]...)
			break
		}
	}
	s.stop(j)
	s.terminate(j, jsCanceled, fmt.Errorf("%w: %s", ErrCanceled, j.result.Tenant))
	s.settle(trig)
	return true
}

// release returns containers a job holds to the pool. Containers that died
// with their node are already unknown to the RM and are skipped; any other
// refusal is a bookkeeping bug and surfaces in the trace.
func (s *Service) release(j *job, conts []yarn.Container) {
	for _, c := range conts {
		if err := s.rm.Release(c.ID); err != nil && !errors.Is(err, yarn.ErrUnknownContainer) {
			s.tr.Complete(obs.LayerWorkload, "workload.release-error", s.now, 0,
				obs.A("tenant", j.result.Tenant), obs.A("err", err.Error()))
		}
	}
}

// push enqueues an event with the next insertion sequence number.
func (s *Service) push(ev event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.evs, ev)
}

// popBatch pops every event sharing the earliest timestamp, in kind/seq
// order: chaos, departures, resizes, retries, arrivals, then the tick.
func (s *Service) popBatch() []event {
	first := heap.Pop(&s.evs).(event)
	batch := []event{first}
	for len(s.evs) > 0 && s.evs[0].at == first.at {
		batch = append(batch, heap.Pop(&s.evs).(event))
	}
	return batch
}

// advanceTo moves simulated time forward, accumulating the utilization
// integrals over the elapsed interval.
func (s *Service) advanceTo(t float64) {
	if dt := t - s.now; dt > 0 {
		capacity := float64(s.rm.LiveNodes()) * float64(s.cc.MemPerNode)
		used := capacity - float64(s.rm.AvailableMem())
		s.usedIntegral += used * dt
		s.capIntegral += capacity * dt
	}
	s.now = t
}

// applyChaos delivers one expanded chaos event and reports whether it
// removed capacity (failure) or returned it (restore).
func (s *Service) applyChaos(ev event) trigger {
	ne := s.chaos[ev.chaos]
	switch ne.Kind {
	case fault.NodeDown:
		if s.applyNodesDown(ne) {
			return trigFailure
		}
	case fault.NodeUp:
		trig := trigNone
		for _, node := range ne.Nodes {
			if err := s.rm.RestoreNode(node); err != nil {
				continue // node was never down (overlapping chaos); skip
			}
			trig = trigRestore
			s.rep.NodeRestores++
			s.tr.Complete(obs.LayerWorkload, "workload.node-restore", s.now, 0,
				obs.A("node", node), obs.A("cause", ne.Cause))
			s.tr.Metrics().Add("workload.node_restores", 1)
		}
		s.setLive(s.rm.LiveNodes())
		return trig
	case fault.NodeSlow:
		s.applyNodeSpeed(ne.Nodes[0], ne.Factor, ne.Cause)
	case fault.NodeFast:
		s.applyNodeSpeed(ne.Nodes[0], 1, ne.Cause)
	}
	return trigNone
}

// applyNodesDown processes a (possibly correlated) node-group loss: the
// cluster view shrinks atomically, and every running job that held a
// container on a lost node goes through the recovery policy.
func (s *Service) applyNodesDown(ne fault.NodeEvent) bool {
	before := s.rm.LiveNodes()
	lost, err := s.rm.FailNodes(ne.Nodes)
	if err != nil {
		return false // validated upfront; defensive
	}
	downed := before - s.rm.LiveNodes()
	if downed == 0 {
		return false // every group member was already down
	}
	s.setLive(s.rm.LiveNodes())
	s.rep.NodeFailures += downed
	s.tr.Complete(obs.LayerWorkload, "workload.node-fail", s.now, 0,
		obs.A("nodes", downed), obs.A("cause", ne.Cause),
		obs.A("lost_containers", len(lost)))
	s.tr.Metrics().Add("workload.node_failures", int64(downed))
	// Correlated losses hit the breaker once per lost node: a rack outage
	// is as many failure signals as it removed nodes.
	for i := 0; i < downed; i++ {
		s.brk.recordFailure(s.now)
	}

	lostIDs := make(map[yarn.ContainerID]bool, len(lost))
	for _, c := range lost {
		lostIDs[c.ID] = true
	}
	for _, j := range s.resident() {
		if j == nil || j.state != jsRunning {
			continue
		}
		for _, c := range j.conts {
			if lostIDs[c.ID] {
				// Any lost container kills the job's current attempt;
				// survivors on live nodes are returned by the recovery path.
				s.failRunning(j, ne.Cause)
				break
			}
		}
	}
	return true
}

// failRunning applies the recovery policy to a running job whose container
// died: snapshot progress (checkpoint) or discard it (naive), charge the
// retry budget, and either schedule a backoff-delayed re-admission or fail
// the job permanently with a typed error.
func (s *Service) failRunning(j *job, cause string) {
	ck, _ := s.snap(j, s.opts.Recovery.Kind == RecoveryCheckpoint)
	if ck > j.ckpt {
		// The job advanced at least one block since its last loss: the
		// retry budget guards against futile churn, not progress, so the
		// consecutive-failure count starts over.
		j.retries = 0
	}
	j.ckpt = ck
	s.stop(j) // survivors on live nodes go back to the pool
	j.retries++
	j.result.Requeues++

	if j.retries > s.opts.Recovery.MaxRetries {
		s.terminate(j, jsFailedPerm, &RetryExhaustedError{
			Tenant: j.result.Tenant, Retries: j.retries, Budget: s.opts.Recovery.MaxRetries,
		}, obs.A("retries", j.retries), obs.A("cause", cause))
		return
	}
	j.state = jsBackoff
	delay := backoffDelay(j.retries)
	s.push(event{at: s.now + delay, kind: evRetry, job: j.idx, gen: j.gen})
	s.tr.Complete(obs.LayerWorkload, "workload.requeue", s.now, 0,
		obs.A("tenant", j.result.Tenant), obs.A("cause", cause),
		obs.A("retry", j.retries), obs.A("backoff", delay),
		obs.A("checkpoint", j.ckpt))
	s.tr.Metrics().Add("workload.requeues", 1)
}

// slowdown maps a node's raw speed factor onto the effective slowdown of a
// job coordinated from it, which the MR speculation model caps — straggler
// nodes and straggler tasks degrade through the same arithmetic.
func (s *Service) slowdown(factor float64) float64 {
	eff, _ := mr.EffectiveSlowdown(factor, s.opts.TaskPolicy.Speculative)
	return eff
}

// applyNodeSpeed delivers a slow-node episode (factor > 1) or its end
// (factor == 1): resident running jobs stretch or recover by the effective
// slowdown.
func (s *Service) applyNodeSpeed(node int, factor float64, cause string) {
	if err := s.rm.SetNodeSpeed(node, factor); err != nil {
		return // node out of range: validated upfront; defensive
	}
	eff := s.slowdown(factor)
	s.rep.SlowNodeEvents++
	s.tr.Complete(obs.LayerWorkload, "workload.node-speed", s.now, 0,
		obs.A("node", node), obs.A("factor", factor), obs.A("effective", eff),
		obs.A("cause", cause))
	s.tr.Metrics().Add("workload.slow_node_events", 1)
	for _, j := range s.resident() {
		// The AM container's node sets the job's effective speed — the
		// progress schedule follows the coordinating process.
		if j == nil || j.state != jsRunning || j.conts[0].Node != node || j.slow == eff {
			continue
		}
		rem := max(j.finish-s.now, 0)
		rem *= eff / j.slow
		j.slow = eff
		s.reschedule(j, j.execStart, s.now+rem)
		j.result.SlowEpisodes++
	}
}

// applyDepart finalizes a finished tenant. Stale events — the job was
// rescheduled by a re-optimization, a resize, or a slow-node episode, or
// taken off the cluster by a failure, since this event was pushed — are
// skipped via the generation check.
func (s *Service) applyDepart(ev event) trigger {
	j := s.jobs[ev.job]
	if j == nil || j.state != jsRunning || ev.gen != j.gen {
		return trigNone
	}
	s.stop(j)
	s.terminate(j, jsDone, nil)
	return trigDeparture
}

// applyArrive moves a submitted job into the admission queue. A job
// canceled before its arrival event fired stays terminal.
func (s *Service) applyArrive(ev event) {
	j := s.jobs[ev.job]
	if j == nil || j.state != jsPending {
		return
	}
	j.state = jsQueued
	s.queue = append(s.queue, ev.job)
	s.tr.Metrics().Add("workload.arrivals", 1)
}
