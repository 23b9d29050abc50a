package workload

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
)

// A program is compiled only where one is consumed — by the optimizer on a
// plan-cache miss and by the runtime when a simulate really has to run —
// and at most once per job, which keeps it for every later consumer. A
// sim-mode job whose live view and configuration are those of its current
// run starts from that run, and one whose plan-cache entry already carries
// its simulated run starts from that. These tests pin the
// workload.compiles, workload.sim_runs and workload.sim_reuses counters to
// those rules: one compile per job, one simulate per distinct (live view,
// configuration).

// fixedWidthJob is a LinregDS scenario job that runs at exactly width w.
func fixedWidthJob(tenant, size string, at float64, w int) JobSpec {
	return JobSpec{
		Tenant: tenant, Script: scripts.LinregDS(),
		Scenario: datagen.New(size, 1000, 1.0), Arrival: at,
		Elastic: ElasticSpec{MinContainers: w, DesiredContainers: w, MaxContainers: w},
	}
}

// counters reads the three deterministic work counters off a service's
// metrics registry.
type counters struct{ compiles, simRuns, simReuses int64 }

// reusedFrom is the outcome a job's current run was started from without
// a simulate — off a plan-cache entry or the job's own last run — or nil.
func (r simResult) reusedFrom() *outcome {
	if r.reused {
		return r.outcome
	}
	return nil
}

func readCounters(o Options) counters {
	m := o.Trace.Metrics().Counter
	return counters{m("workload.compiles"), m("workload.sim_runs"), m("workload.sim_reuses")}
}

// TestReoptCheckDoesNotCompile: six same-key jobs arrive a second apart on a
// roomy cluster and leave one by one, and every departure re-checks the jobs
// still running (§5): 5+4+3+2+1 = 15 checks.
//
// With the cache, the first job's live-view lookup is the only miss of the
// run: it compiles for the search, the same program is simulated, and the
// run is attached to the entry. Every later admission hits that entry and
// finds the run on it (they arrive in later settles, after the attach), and
// a check that hits needs the job's identity only: 1 compile, 1 simulate, 5
// reuses. With the cache disabled (the reference path) every lookup misses
// and a miss needs a program for the optimizer: each job compiles at its
// admission, its simulate and every check reuse that program, so 6
// compiles, and six simulates.
func TestReoptCheckDoesNotCompile(t *testing.T) {
	const n = 6
	for _, cacheEntries := range []int{0, -1} {
		var jobs []JobSpec
		for i := 0; i < n; i++ {
			jobs = append(jobs, fixedWidthJob(fmt.Sprintf("t%d", i), "S", float64(i), 1))
		}
		o := DefaultOptions()
		o.CacheEntries = cacheEntries
		o.Trace = obs.New(false)
		rep, err := runChecked(t, conf.DefaultCluster(), jobs, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Unserved != 0 || rep.MaxConcurrent != n || rep.ReoptChecks != n*(n-1)/2 {
			t.Fatalf("cache %d: want %d overlapping served jobs and their checks, got %d unserved, peak %d, checks %d",
				cacheEntries, n, rep.Unserved, rep.MaxConcurrent, rep.ReoptChecks)
		}
		want := counters{compiles: 1, simRuns: 1, simReuses: n - 1}
		if cacheEntries < 0 {
			want = counters{compiles: n, simRuns: n}
		}
		if got := readCounters(o); got != want {
			t.Errorf("cache %d: %+v for %d jobs and %d re-optimization checks, want %+v",
				cacheEntries, got, n, rep.ReoptChecks, want)
		}
	}
}

// TestBlockedHeadCompilesOnce: a queued job that place cannot fit is tried
// again at every settle. Identifying it stages its inputs and compiles
// nothing, and while its live and clamped keys hit, the attempts cost no
// compile either — so a blocked head compiles once if the cache has never
// seen it under some cluster view, else never, however long it waits and
// however many such views it meets: the job keeps its program. The head is a
// width-`nodes` job that needs a container on every node while a blocker
// holds most of node 0; elasticity ticks supply the settles.
//
// What admission then costs depends on the entry the head is admitted from.
// In the three-node rows that is its live key, which is the blocker's — same
// program, same inputs, same view — and the blocker's run has been on that
// entry since t=0: the head starts from it, 0 compiles in total. In the
// chunk-moves row the head is admitted degraded, under a clamped view that
// is new at that very attempt: the miss searches with the program the head
// compiled at its first miss, which then goes on to simulate, so the
// admission compiles nothing.
//
// Every other job compiles exactly once, on its first attempt: the blocker
// and the first tail on a miss; the later tails of the chunk-moves row are
// placed in the same settle as the first, hit its entry before its run is
// attached (attaches follow the round's simulations) and compile to
// simulate.
func TestBlockedHeadCompilesOnce(t *testing.T) {
	rows := []struct {
		name         string
		policy       Policy
		nodes, tails int
		cacheEntries int
		// misses is how many never-seen clamped views the head meets, while
		// it waits and when it is admitted; bypassed reports whether the
		// tail overtakes it, degraded whether it is admitted under a clamp.
		misses             int64
		bypassed, degraded bool
	}{
		// Three nodes: the tail (if it bypasses) lands on node 1 and node 2
		// stays empty, so the largest free chunk never moves.
		{name: "fifo", policy: PolicyFIFO, nodes: 3, tails: 1},
		{name: "regret-bypassed", policy: PolicyRegret, nodes: 3, tails: 1, bypassed: true},
		// Two nodes: three bypassing tails fill the only empty node up to
		// its last 512 MB, which holds one container of the head's clamped
		// optimum but not two (first never-seen view); when the first tail
		// leaves, the chunk grows to 1.5 GB (second), and that clamped
		// optimum fits twice.
		{name: "regret-chunk-moves", policy: PolicyRegret, nodes: 2, tails: 3, misses: 2, bypassed: true, degraded: true},
		// No cache: every attempt misses, and the first compiles.
		{name: "fifo-no-cache", policy: PolicyFIFO, nodes: 3, tails: 1, cacheEntries: -1},
	}
	plans := map[string]string{}
	for _, row := range rows {
		cc := demoCluster()
		cc.Nodes = row.nodes
		o := DefaultOptions()
		o.Policy = row.policy
		o.CacheEntries = row.cacheEntries
		o.Elastic.Tick = 1
		o.Trace = obs.New(false)
		s, err := New(cc, o)
		if err != nil {
			t.Fatal(err)
		}
		s.submit(fixedWidthJob("blocker", "S", 0, 1))
		head := s.jobs[s.submit(fixedWidthJob("head", "S", 1, row.nodes))]
		for i := 0; i < row.tails; i++ {
			s.submit(fixedWidthJob(fmt.Sprintf("tail%d", i), "XS", 2, 1))
		}
		tail := s.jobs[head.idx+1]
		s.ScheduleChaos()

		// k counts the settles that retried the waiting head.
		k, bypassed := 0, false
		for head.state != jsRunning {
			waiting := head.state == jsQueued
			blocked := readCounters(o).compiles
			if !stepChecked(t, s) {
				t.Fatalf("%s: head never admitted", row.name)
			}
			if waiting && head.state == jsQueued {
				k++
				bypassed = bypassed || tail.state == jsRunning
			} else if waiting && row.cacheEntries >= 0 && row.misses == 0 {
				// The admitting settle itself: nothing compiles.
				if got := readCounters(o).compiles - blocked; got != 0 {
					t.Errorf("%s: the admitting settle compiled %d times, want 0", row.name, got)
				}
			}
		}
		if k < 3 {
			t.Fatalf("%s: head waited through %d settles, want >= 3", row.name, k)
		}
		if bypassed != row.bypassed {
			t.Errorf("%s: tail bypassed the head = %v, want %v", row.name, bypassed, row.bypassed)
		}
		if head.result.Degraded != row.degraded {
			t.Errorf("%s: head admitted degraded = %v, want %v", row.name, head.result.Degraded, row.degraded)
		}
		if reused := head.id.run.reusedFrom() != nil; reused != (row.cacheEntries >= 0 && !row.degraded) {
			t.Errorf("%s: head started from a kept run = %v", row.name, reused)
		}
		others := int64(0)
		for _, j := range s.jobs {
			if j == nil || j != head && j.state != jsPending && j.state != jsQueued {
				others++
			}
		}
		want := min(row.misses, 1)
		if row.cacheEntries < 0 {
			// The first attempt compiles; the k retries, the attempt that
			// fits, its simulate and every §5 check so far reuse that.
			want = 1
		}
		if got := readCounters(o).compiles - others; got != want {
			t.Errorf("%s: head took %d compiles over %d blocked settles, want %d", row.name, got, k, want)
		}

		for stepChecked(t, s) {
		}
		for _, tn := range s.Finalize().Tenants {
			if !tn.Served {
				t.Errorf("%s: %s not served: %+v", row.name, tn.Tenant, tn)
			}
			plans[row.name] += fmt.Sprintf("%s %s x%d %s\n", tn.Tenant, tn.Config, tn.Width, tn.OutputHash)
		}
	}
	if a, b := plans["fifo"], plans["fifo-no-cache"]; a != b {
		t.Errorf("plans with the cache disabled:\n%swith it:\n%s", b, a)
	}
}

// sameRun reports whether two served jobs ran the same thing: the plan, the
// width, everything written and printed, and the time on the cluster once
// the admission charges (a cold optimization or a hit) are taken off.
func sameRun(a, b TenantResult) bool {
	exec := func(tn TenantResult) float64 {
		if tn.CacheHit {
			return tn.Latency - hitCharge
		}
		return tn.Latency - optCharge
	}
	return a.Served && b.Served && a.Config == b.Config && a.Width == b.Width &&
		a.OutputHash == b.OutputHash && a.Prints == b.Prints && math.Abs(exec(a)-exec(b)) < 1e-9
}

// TestRepeatJobCostsALookup: a job the service has already decided and
// simulated costs a lookup — and only such a job does.
func TestRepeatJobCostsALookup(t *testing.T) {
	const n = 5
	// Same-key jobs far enough apart that none overlaps another: no §5
	// check ever runs, so the counters are the admissions' alone.
	repeats := func() []JobSpec {
		var jobs []JobSpec
		for i := 0; i < n; i++ {
			jobs = append(jobs, fixedWidthJob(fmt.Sprintf("t%d", i), "S", float64(i)*500, 1))
		}
		return jobs
	}
	run := func(name string, jobs []JobSpec, o Options, want counters) []TenantResult {
		t.Helper()
		o.Trace = obs.New(false)
		rep, err := runChecked(t, conf.DefaultCluster(), jobs, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := readCounters(o); got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
		return rep.Tenants
	}

	// The first job misses, compiles once for the search and the simulate,
	// and leaves its run on the entry; the others hit and start from it.
	o := DefaultOptions()
	cached := run("repeats", repeats(), o, counters{compiles: 1, simRuns: 1, simReuses: n - 1})
	// The reference path: no entry, nothing to keep a run on.
	o.CacheEntries = -1
	plain := run("repeats-no-cache", repeats(), o, counters{compiles: n, simRuns: n})
	for i := range cached {
		if !sameRun(cached[i], plain[i]) || cached[i].CacheHit != (i > 0) || plain[i].CacheHit {
			t.Errorf("a kept run differs from a fresh one:\n%+v\n%+v", cached[i], plain[i])
		}
	}

	// An entry evicted between plan and admit: a one-entry cache, a job A
	// alone, then A again and a different job B in one settle. place(A')
	// hits A's entry; place(B) misses and its insert evicts that entry; the
	// round's run then finds no entry for A', so A' compiles and simulates
	// like the first A (and its attach finds no entry either). The §5
	// check of A' when B departs misses too (its entry is still gone), but
	// A' has its program by then: three compiles, one per job.
	o = DefaultOptions()
	o.CacheEntries = 1
	evicted := run("evicted", []JobSpec{
		fixedWidthJob("A", "S", 0, 1), fixedWidthJob("A'", "S", 500, 1), fixedWidthJob("B", "XS", 500, 1),
	}, o, counters{compiles: 3, simRuns: 3})
	if a, a2 := evicted[0], evicted[1]; !sameRun(a, a2) || !sameRun(a2, cached[1]) || a.CacheHit || !a2.CacheHit {
		t.Errorf("a job whose entry was evicted under it ran differently:\n%+v\n%+v", a, a2)
	}

	// A value-mode job runs real matrices its own Setup stages: it always
	// executes, and it stages its inputs once — identify's file system hangs
	// off the job's identity, which its compile and every run share.
	prog := verify.Corpus()[0]
	setups := 0
	var values []JobSpec
	for i := 0; i < n; i++ {
		values = append(values, JobSpec{
			Tenant: fmt.Sprintf("v%d", i), Source: prog.Source, Params: prog.Params, Arrival: float64(i) * 500,
			Setup: func(fs *hdfs.FS) { setups++; prog.Setup(fs) },
		})
	}
	o = DefaultOptions()
	o.Trace = obs.New(false)
	s, err := New(conf.DefaultCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range values {
		s.submit(spec)
	}
	for s.Step() { // unchecked: the invariants' own shadow identify calls Setup
	}
	if got, want := readCounters(o), (counters{compiles: n, simRuns: n}); got != want || setups != n {
		t.Errorf("value mode: %+v and %d Setup calls for %d admissions, want %+v and %d", got, setups, n, want, n)
	}
	first, _ := s.Result(0)
	hash := first.OutputHash
	for _, tn := range s.Finalize().Tenants {
		if !tn.Served || len(tn.Outputs) == 0 || tn.OutputHash != hash {
			t.Errorf("value mode: %s served=%v with %d outputs, hash %s", tn.Tenant, tn.Served, len(tn.Outputs), tn.OutputHash)
		}
	}

	// A failure victim keeps its identity through the requeue: its node
	// flaps during its first run, and the re-admission runs it again on the
	// inputs and the program of the first — one Setup, one compile, two
	// simulates.
	setups = 0
	o = DefaultOptions()
	o.Chaos.Flaps = []fault.Flap{{Node: 0, At: 1, RestoreAfter: 1}}
	o.Trace = obs.New(false)
	if s, err = New(conf.DefaultCluster(), o); err != nil {
		t.Fatal(err)
	}
	s.submit(values[0])
	s.ScheduleChaos()
	for s.Step() {
	}
	tn := s.Finalize().Tenants[0]
	if got, want := readCounters(o), (counters{compiles: 1, simRuns: 2}); got != want || setups != 1 || tn.Requeues != 1 {
		t.Errorf("requeued value job: %+v and %d Setup calls over %d requeues, want %+v and 1 over 1", got, setups, tn.Requeues, want)
	}
	if !tn.Served || tn.OutputHash != hash {
		t.Errorf("requeued value job: served=%v, hash %s, want %s", tn.Served, tn.OutputHash, hash)
	}
}

// TestClampedPlansKeepTheirOwnRuns: a degraded (clamped) admission and a
// resize start from the run kept under the *clamped* view's key — the plan
// they adopted — never from the live key's, which holds the run of another
// configuration.
func TestClampedPlansKeepTheirOwnRuns(t *testing.T) {
	o := DefaultOptions()
	o.Policy = PolicyRegret
	o.Trace = obs.New(false)
	s, err := New(demoCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(spec JobSpec) *job { return s.jobs[s.submit(spec)] }
	// live runs alone under the live view's optimum (a 1.7 GB container) and
	// leaves its run on the live key. xs then holds 512 MB on each node, so
	// the largest free chunk is 1.5 GB when deg0 and deg1 arrive.
	live := submit(fixedWidthJob("live", "S", 0, 1))
	submit(fixedWidthJob("xs", "XS", 100, 2))
	deg0 := submit(fixedWidthJob("deg0", "S", 101, 1))
	deg1 := submit(fixedWidthJob("deg1", "S", 102, 1))
	// grow0 and grow1 run alone, one after the other, and the regret policy
	// widens each into the idle node.
	g := fixedWidthJob("grow0", "S", 300, 1)
	g.Elastic.MaxContainers = 2
	grow0 := submit(g)
	g.Tenant, g.Arrival = "grow1", 500
	grow1 := submit(g)
	s.ScheduleChaos()

	// kept is the run on the entry of j's problem under a view.
	kept := func(j *job, view conf.Cluster) *outcome {
		o, _ := s.cache.Outcome(opt.CacheKey(j.id.source, j.id.params, j.id.inputs, view, s.optOpts()))
		p, _ := o.(*outcome)
		return p
	}
	until := func(what string, cond func() bool) counters {
		t.Helper()
		for !cond() {
			if !stepChecked(t, s) {
				t.Fatalf("never saw: %s", what)
			}
		}
		return readCounters(o)
	}

	c := until("live running", func() bool { return live.state == jsRunning })
	liveRun := kept(live, s.live())
	if c != (counters{compiles: 1, simRuns: 1}) || liveRun == nil {
		t.Fatalf("live: %+v, run on its entry %v", c, liveRun)
	}
	liveRes := live.res.String()

	// deg0's live optimum does not fit the 1.5 GB chunk: it is re-planned
	// under the clamped view — a miss — and that plan is simulated. The live
	// key's run is not its run.
	clamped := s.live()
	clamped.MaxAlloc = 1536 * conf.MB
	before := until("xs running", func() bool { return s.jobs[1].state == jsRunning })
	c = until("deg0 running", func() bool { return deg0.state == jsRunning })
	if !deg0.result.Degraded || deg0.id.run.reusedFrom() != nil || deg0.res.String() == liveRes ||
		c.compiles != before.compiles+1 || c.simRuns != before.simRuns+1 || c.simReuses != before.simReuses {
		t.Fatalf("deg0: degraded=%v reused=%v %s (live %s), counters %+v → %+v",
			deg0.result.Degraded, deg0.id.run.reusedFrom() != nil, deg0.res.String(), liveRes, before, c)
	}
	degRun := kept(deg0, clamped)
	if degRun == nil || degRun == liveRun || *degRun == *liveRun {
		t.Fatalf("the clamped key keeps %+v, the live key %+v", degRun, liveRun)
	}
	// deg1 meets the same chunk on the other node: both its keys hit, and
	// it starts from the clamped key's run.
	before = c
	c = until("deg1 running", func() bool { return deg1.state == jsRunning })
	if !deg1.result.Degraded || deg1.id.run.reusedFrom() != degRun || deg1.id.run.simSeconds != deg0.id.run.simSeconds || deg1.res.String() != deg0.res.String() ||
		c != (counters{before.compiles, before.simRuns, before.simReuses + 1}) {
		t.Fatalf("deg1: degraded=%v from the clamped key's run=%v, counters %+v → %+v",
			deg1.result.Degraded, deg1.id.run.reusedFrom() == degRun, before, c)
	}

	// A resize re-plans under the width-clamped view. grow0 is admitted from
	// the live key's run; its grow is the first plan under the width clamp —
	// a miss, simulated. grow1's admission and grow both cost a lookup, the
	// grow from the width-clamped key's run.
	c = until("grow0 running", func() bool { return grow0.state == jsRunning })
	if grow0.id.run.reusedFrom() != liveRun {
		t.Fatalf("grow0 was not admitted from the live key's run")
	}
	before = c
	c = until("grow0 grown", func() bool { return grow0.result.Grows == 1 })
	wide := opt.WidthClamped(s.live(), grow0.conts[0].Mem)
	wideRun := kept(grow0, wide)
	if grow0.id.run.reusedFrom() != nil || wideRun == nil || wideRun == liveRun || wide == s.live() ||
		c != (counters{before.compiles + 1, before.simRuns + 1, before.simReuses}) {
		t.Fatalf("grow0's grow: reused=%v, run on the width-clamped key %v, counters %+v → %+v",
			grow0.id.run.reusedFrom() != nil, wideRun, before, c)
	}
	before = c
	c = until("grow1 grown", func() bool { return grow1.result.Grows == 1 })
	if grow1.id.run.reusedFrom() != wideRun || c != (counters{before.compiles, before.simRuns, before.simReuses + 2}) {
		t.Fatalf("grow1: grown from the width-clamped key's run=%v, counters %+v → %+v", grow1.id.run.reusedFrom() == wideRun, before, c)
	}
	for stepChecked(t, s) {
	}
	for _, tn := range s.Finalize().Tenants {
		if !tn.Served {
			t.Errorf("%s not served: %+v", tn.Tenant, tn)
		}
	}
}

// TestResizeKeepsItsRun: a resize re-plans under the width-clamped view, a
// key the job has never been planned under, but the job keeps its program
// and its current run. A malleable mini-batch job alone on four nodes grows
// one container a second; its grows keep the admission's configuration.
//
//   - The first grow misses and searches with the program the admission
//     compiled, lands on the same configuration under the same live view,
//     and starts from the job's own run: no compile, no simulate. That run
//     is attached to the width-clamped key's entry on the way.
//   - Node 3, which the job does not hold yet, flaps. The second grow
//     happens while it is down: the live view moved, so it simulates once.
//   - The third grow, after the restore, is back on the first grow's key,
//     whose entry carries the run: again nothing to compile or simulate.
func TestResizeKeepsItsRun(t *testing.T) {
	cc := conf.DefaultCluster()
	cc.Nodes, cc.MemPerNode, cc.MaxAlloc = 4, conf.GB, conf.GB
	o := DefaultOptions()
	o.Policy = PolicyRegret
	o.Elastic.Tick = 1
	o.Chaos.Flaps = []fault.Flap{{Node: 3, At: 5.5, RestoreAfter: 1}}
	o.Trace = obs.New(false)
	s, err := New(cc, o)
	if err != nil {
		t.Fatal(err)
	}
	j := s.jobs[s.submit(JobSpec{
		Tenant: "mb", Script: scripts.MinibatchLR(), Scenario: datagen.New("XS", 1000, 1.0),
		Elastic: ElasticSpec{MinContainers: 1, DesiredContainers: 1, MaxContainers: 4},
	})]
	s.ScheduleChaos()
	grown := func(n int) counters {
		t.Helper()
		for j.result.Grows < n {
			if !stepChecked(t, s) {
				t.Fatalf("never saw grow %d", n)
			}
		}
		return readCounters(o)
	}

	for j.state != jsRunning {
		stepChecked(t, s)
	}
	c := readCounters(o)
	admitted, res, full := j.id.run.outcome, j.res.String(), s.live()
	if c != (counters{compiles: 1, simRuns: 1}) {
		t.Fatalf("admission: %+v", c)
	}

	before, c := c, grown(1)
	wide := opt.WidthClamped(full, j.conts[0].Mem)
	entry, _ := s.cache.Outcome(opt.CacheKey(j.id.source, j.id.params, j.id.inputs, wide, s.optOpts()))
	if c != (counters{before.compiles, before.simRuns, before.simReuses + 1}) || j.res.String() != res ||
		j.id.run.reusedFrom() != admitted || entry != admitted || wide == full {
		t.Fatalf("grow 1: %s (was %s), counters %+v → %+v, from its own run %v, attached %v",
			j.res.String(), res, before, c, j.id.run.reusedFrom() == admitted, entry == admitted)
	}

	before, c = c, grown(2)
	if s.live().Nodes != 3 || c.compiles != before.compiles || c.simRuns != before.simRuns+1 || j.id.run.reused {
		t.Fatalf("grow 2 under %d live nodes: counters %+v → %+v, reused %v", s.live().Nodes, before, c, j.id.run.reused)
	}

	before, c = c, grown(3)
	if s.live() != full || c != (counters{before.compiles, before.simRuns, before.simReuses + 1}) || j.id.run.reusedFrom() != admitted {
		t.Fatalf("grow 3 under %d live nodes: counters %+v → %+v, from the entry's run %v",
			s.live().Nodes, before, c, j.id.run.reusedFrom() == admitted)
	}
	for stepChecked(t, s) {
	}
	if tn := s.Finalize().Tenants[0]; !tn.Served || tn.Requeues != 0 || tn.Grows != 3 {
		t.Errorf("want served after three grows, no requeue: %+v", tn)
	}
}

// TestGarbageSourcesLeaveNoTrace: identifying a job compiles nothing, so a
// source that does not parse or compile reaches plan, misses, and fails
// there with the compile's own error. It must leave nothing behind: no plan
// entry and no insertion. The one observable difference to failing before
// the lookup: each such job counts one cache miss.
func TestGarbageSourcesLeaveNoTrace(t *testing.T) {
	o := DefaultOptions()
	o.Trace = obs.New(false)
	s, err := New(conf.DefaultCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	good := s.jobs[s.submit(fixedWidthJob("good", "S", 0, 1))]
	for good.state != jsRunning {
		stepChecked(t, s)
	}
	entries, stats := s.cache.Len(), s.cache.Stats()
	if entries != 1 {
		t.Fatalf("one good job left %d entries", entries)
	}
	const n = 200
	var bad []*job
	for i := 0; i < n; i++ {
		src, want := fmt.Sprintf("x = %d +* ;", i), "parse: "
		if i%2 == 1 {
			src, want = fmt.Sprintf("x = read(\"/nowhere/%d\"); write(x, \"/out/x\");", i), "compile: "
		}
		j := s.jobs[s.submit(JobSpec{Tenant: want, Source: src, Arrival: s.now})]
		bad = append(bad, j)
	}
	for s.running > 0 && stepChecked(t, s) {
	}
	for _, j := range bad {
		if j.state != jsFailed || !strings.HasPrefix(j.result.Error, j.result.Tenant) {
			t.Fatalf("garbage job ended %v with %q, want failed with a %q error", j.state, j.result.Error, j.result.Tenant)
		}
	}
	after := s.cache.Stats()
	if s.cache.Len() != entries || after.Insertions != stats.Insertions {
		t.Errorf("garbage left %d entries (was %d), %d insertions (was %d)",
			s.cache.Len(), entries, after.Insertions, stats.Insertions)
	}
	if after.Misses != stats.Misses+n {
		t.Errorf("%d garbage jobs counted %d misses, want one each", n, after.Misses-stats.Misses)
	}
	if got := readCounters(o); got.compiles != 1+n || got.simRuns != 1 {
		t.Errorf("%+v, want one failed compile per garbage job and nothing simulated for them", got)
	}
}

// TestSettleVisitsResidentJobsOnly: the per-settle passes over "every live
// job" (§5 checks, the policy engine, the tick re-arm, node events) range
// over resident(), so what they visit is its length. On a service that keeps
// a few jobs in flight, that stays within the jobs alive plus the window,
// however many have departed; it used to be every job ever submitted.
func TestSettleVisitsResidentJobsOnly(t *testing.T) {
	o := DefaultOptions()
	o.Policy = PolicyFair
	o.Elastic.Tick = 50
	s, err := New(conf.DefaultCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleChaos()
	const jobs, window = 300, 4
	alive := func() (n int) {
		for _, j := range s.jobs {
			if j != nil {
				n++
			}
		}
		return n
	}
	submitted, most := 0, 0
	for {
		for n := alive(); n < window && submitted < jobs; n++ {
			s.submit(fixedWidthJob("hot", "S", s.now+float64(n), 1))
			submitted++
		}
		if !s.Step() {
			break
		}
		visits := len(s.resident())
		most = max(most, visits)
		if n := alive(); visits > n+window {
			t.Fatalf("after %d submissions a settle visits %d jobs with %d alive", submitted, visits, n)
		}
	}
	served := 0
	for _, tn := range s.Finalize().Tenants {
		if tn.Served {
			served++
		}
	}
	if served != jobs || most == 0 {
		t.Errorf("%d of %d jobs served, at most %d visited per settle", served, jobs, most)
	}
}

// BenchmarkSettleHot times one departure Step — the §5 pass over r resident
// running jobs whose keys all hit, then admission and the policy engine on
// an empty queue. Same-program jobs arrive spaced so that r or r+1 of them
// are running at any time; only the departure steps are timed.
func BenchmarkSettleHot(b *testing.B) {
	for _, r := range []int{4, 16} {
		b.Run(fmt.Sprintf("resident=%d", r), func(b *testing.B) {
			o := DefaultOptions()
			o.Trace = obs.New(false)
			s, err := New(conf.DefaultCluster(), o)
			if err != nil {
				b.Fatal(err)
			}
			// A job alone on the cluster measures the time one spends in
			// the service; the first fills the plan cache, the second hits
			// it like every job after.
			alone := func() float64 {
				j := s.jobs[s.submit(fixedWidthJob("alone", "S", s.now, 1))]
				for s.Step() {
				}
				return j.result.Latency
			}
			alone()
			gap := alone() / (float64(r) + 0.5)
			for i := 0; i < b.N+2*r+2; i++ {
				s.submit(fixedWidthJob(fmt.Sprintf("t%d", i), "S", s.now+float64(i+1)*gap, 1))
			}
			for s.running <= r {
				if !s.Step() {
					b.Fatalf("never reached %d running jobs", r+1)
				}
			}
			counter := o.Trace.Metrics().Counter
			checks := s.rep.ReoptChecks
			var timed int64
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; {
				depart := s.evs[0].kind == evDepart
				before := counter("workload.compiles")
				if depart {
					b.StartTimer()
				}
				s.Step()
				if depart {
					b.StopTimer()
					timed += counter("workload.compiles") - before
					i++
				}
			}
			if got, changes := s.rep.ReoptChecks-checks, counter("workload.reopt_changes"); got != b.N*r || changes != 0 {
				b.Fatalf("not a steady hot state: %d checks over %d departures, %d changes", got, b.N, changes)
			}
			b.ReportMetric(float64(timed)/float64(b.N), "compiles/op")
		})
	}
}

// BenchmarkRepeatJob times the whole life of one job the service has seen
// before — arrival, admission off its plan-cache entry, departure — on a
// warmed service with nothing else running. It fails unless such a job
// compiles nothing and simulates nothing.
func BenchmarkRepeatJob(b *testing.B) {
	o := DefaultOptions()
	o.Trace = obs.New(false)
	s, err := New(conf.DefaultCluster(), o)
	if err != nil {
		b.Fatal(err)
	}
	one := func() {
		s.submit(fixedWidthJob("hot", "S", s.now, 1))
		for s.Step() {
		}
		s.DrainFinished()
	}
	one() // the cold job: plans, simulates, leaves its run on the entry
	warm := readCounters(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
	b.StopTimer()
	got := readCounters(o)
	if got.compiles != warm.compiles || got.simRuns != warm.simRuns || got.simReuses != warm.simReuses+int64(b.N) {
		b.Fatalf("%d repeat jobs moved the counters %+v → %+v", b.N, warm, got)
	}
	b.ReportMetric(float64(got.compiles-warm.compiles)/float64(b.N), "compiles/op")
	b.ReportMetric(float64(got.simRuns-warm.simRuns)/float64(b.N), "sim_runs/op")
}

// BenchmarkChurnTrace times one whole malleable trace (churnTrace) through
// batch Run, whose window prepares the next jobs on GOMAXPROCS workers. It
// fails unless every job compiles at most once, and reports how many
// prepared answers the loop committed, and how many parses and
// from-statements block builds the compile table saw.
func BenchmarkChurnTrace(b *testing.B) {
	cc, jobs, o := churnTrace()
	o.Trace = obs.New(false)
	tab := obs.New(false)
	compileTable.Trace = tab
	defer func() { compileTable.Trace = nil }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cc, jobs, o)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Grows == 0 || rep.Requeues == 0 || rep.Unserved != 0 {
			b.Fatalf("not a churning trace: %d grows, %d requeues, %d unserved", rep.Grows, rep.Requeues, rep.Unserved)
		}
	}
	b.StopTimer()
	c := readCounters(o)
	perOp := float64(c.compiles) / float64(b.N)
	b.ReportMetric(perOp, "compiles/op")
	b.ReportMetric(float64(c.simRuns)/float64(b.N), "sim_runs/op")
	b.ReportMetric(float64(o.Trace.Metrics().Counter("workload.prep_used"))/float64(b.N), "prep_used/op")
	m := tab.Metrics()
	b.ReportMetric(float64(m.Counter("compile.parses"))/float64(b.N), "parses/op")
	b.ReportMetric(float64(m.Counter("compile.template_fallbacks"))/float64(b.N), "template_fallbacks/op")
	if perOp > float64(len(jobs)) {
		b.Fatalf("%.1f compiles per trace of %d jobs", perOp, len(jobs))
	}
}

// TestColdTemplatesSameRun: a program is the same whichever compile built
// its templates. The churn trace writes the same report, trace and metrics
// when every compile parses its source and builds its templates afresh (a
// nil compile table) as when every compile re-sizes templates a run before
// left in the table.
func TestColdTemplatesSameRun(t *testing.T) {
	cc, jobs, o := churnTrace()
	c := prefetchCase{"minibatch-chaos", cc, jobs, o}
	defer func(tab *hop.Table) { compileTable = tab }(compileTable)
	compileTable = nil
	cold := runArtifacts(t, c, false)

	compileTable = &hop.Table{Trace: obs.New(false)}
	var held []*hop.Script // keeps the table warm between the runs
	for _, j := range jobs {
		s, err := compileTable.Parse(j.Script.Source)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	runArtifacts(t, c, false)
	m := compileTable.Trace.Metrics()
	built := m.Counter("compile.parses") + m.Counter("compile.template_builds")
	resized := m.Counter("compile.template_resizes")
	warm := runArtifacts(t, c, false)
	if n := m.Counter("compile.parses") + m.Counter("compile.template_builds") - built; n != 0 || m.Counter("compile.template_resizes") == resized {
		t.Fatalf("the second run parsed or built %d times, re-sized %d templates: not warm", n, m.Counter("compile.template_resizes")-resized)
	}
	runtime.KeepAlive(held)
	for _, f := range []struct {
		name       string
		cold, warm []byte
	}{{"report", cold.report, warm.report}, {"trace", cold.trace, warm.trace}, {"metrics", cold.metrics, warm.metrics}} {
		if !bytes.Equal(f.cold, f.warm) {
			t.Errorf("the %s off cold templates differs from the one off warm ones:\n%s", f.name, diffLine(f.cold, f.warm))
		}
	}
}
