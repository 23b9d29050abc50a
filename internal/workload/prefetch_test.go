package workload

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/obs"
)

// Batch Run prepares its next jobs on a worker pool (prefetch.go) and
// commits them by the rules a prepared daemon submission goes through.
// These tests pin that this changes nothing but where the work runs: Run
// reports what the same jobs stepped by hand through Submit and Step (which
// never prefetch) report, at any GOMAXPROCS, with the same compiles, and no
// worker outlives Run. CI runs them under -race -cpu 1,2,4.

// churnTrace is a malleable 24-job mini-batch trace on a contended 2-node ×
// 1 GB cluster under the regret policy, with a straggler episode and a node
// flap: resizes, requeues and §5 passes re-plan running jobs all the time.
func churnTrace() (conf.Cluster, []JobSpec, Options) {
	cc := conf.DefaultCluster()
	cc.Nodes, cc.MemPerNode, cc.MaxAlloc = 2, conf.GB, conf.GB
	o := DefaultOptions()
	o.Policy = PolicyRegret
	o.Elastic.Tick = 5
	o.Chaos = fault.ChaosPlan{
		SlowNodes: []fault.SlowNode{{Node: 0, At: 20, Factor: 3, Duration: 40}},
		Flaps:     []fault.Flap{{Node: 1, At: 70, RestoreAfter: 20}},
	}
	return cc, GenerateMinibatch(1, 24), o
}

// prefetchCase is one job list the prefetch tests run.
type prefetchCase struct {
	name string
	cc   conf.Cluster
	jobs []JobSpec
	o    Options
}

func prefetchCases() []prefetchCase {
	cc, jobs, o := churnTrace()
	return []prefetchCase{
		{"minibatch-chaos", cc, jobs, o},
		{"generate-400", demoCluster(), Generate(1, 400, 2), DefaultOptions()},
		{"value-mode", demoCluster(), fuzzJobs(6), DefaultOptions()},
		// A node is lost while the window holds claims keyed under the
		// full cluster: how many of them go stale depends on when each was
		// claimed, which a window sized by the worker count would move.
		{"demo-nodefail", demoCluster(), demoJobs(), demoOptions()},
	}
}

// artifacts is what one run writes: the report, the Chrome trace and the
// metrics registry, as bytes.
type artifacts struct {
	report, trace, metrics []byte
	m                      *obs.Metrics
}

// runArtifacts runs the case through Run, or with stepped through Submit
// and Step on the caller's goroutine, with a fresh tracer.
func runArtifacts(t *testing.T, c prefetchCase, stepped bool) artifacts {
	t.Helper()
	tr := obs.New(true)
	o := c.o
	o.Trace = tr
	var rep *Report
	var err error
	if stepped {
		var s *Service
		if s, err = New(c.cc, o); err != nil {
			t.Fatal(err)
		}
		for _, spec := range c.jobs {
			if _, err = s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		s.ScheduleChaos()
		for s.Step() {
		}
		rep = s.Finalize()
	} else if rep, err = Run(c.cc, c.jobs, o); err != nil {
		t.Fatal(err)
	}
	var a artifacts
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	a.report = bytes.Clone(b.Bytes())
	b.Reset()
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	a.trace = bytes.Clone(b.Bytes())
	b.Reset()
	if err := tr.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	a.metrics, a.m = b.Bytes(), tr.Metrics()
	return a
}

// TestPrefetchMatchesSteppedRun: Run's report and trace equal those of the
// same jobs stepped by hand, and so does workload.compiles — the window
// hands a worker only a job whose key no earlier claim holds, and that job
// would have compiled at its first miss anyway. The run must really commit
// prepared answers, or the comparison would test nothing.
func TestPrefetchMatchesSteppedRun(t *testing.T) {
	for _, c := range prefetchCases() {
		run, hand := runArtifacts(t, c, false), runArtifacts(t, c, true)
		if !bytes.Equal(run.report, hand.report) {
			t.Errorf("%s: Run's report differs from the stepped one:\n%s", c.name, diffLine(run.report, hand.report))
		}
		if !bytes.Equal(run.trace, hand.trace) {
			t.Errorf("%s: Run's trace differs from the stepped one:\n%s", c.name, diffLine(run.trace, hand.trace))
		}
		if r, h := run.m.Counter("workload.compiles"), hand.m.Counter("workload.compiles"); r != h {
			t.Errorf("%s: Run compiled %d times, the stepped run %d", c.name, r, h)
		}
		if used := run.m.Counter("workload.prep_used"); used == 0 || hand.m.Counter("workload.prep_used") != 0 {
			t.Errorf("%s: Run committed %d prepared answers, the stepped run %d",
				c.name, used, hand.m.Counter("workload.prep_used"))
		}
	}
}

// TestPrefetchIndependentOfGOMAXPROCS: the loop makes every claim, so the
// report, the trace and the whole metrics registry — prep_used, sim_runs
// and sim_reuses among it — are the same bytes at 1, 2 and 4 workers.
func TestPrefetchIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range prefetchCases() {
		var first artifacts
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			a := runArtifacts(t, c, false)
			if procs == 1 {
				first = a
				continue
			}
			for _, d := range []struct {
				what     string
				got, one []byte
			}{{"report", a.report, first.report}, {"trace", a.trace, first.trace}, {"metrics", a.metrics, first.metrics}} {
				if !bytes.Equal(d.got, d.one) {
					t.Errorf("%s: %s at GOMAXPROCS %d differs from GOMAXPROCS 1:\n%s", c.name, d.what, procs, diffLine(d.got, d.one))
				}
			}
		}
	}
}

// TestRunStopsItsWorkers: after Run returns, the goroutine count is back
// where it was — also when a job's Setup panics on the loop's claim and
// when a worker's compile fails. Both jobs fail as they would unprepared.
func TestRunStopsItsWorkers(t *testing.T) {
	panics := JobSpec{Tenant: "panics", Source: `write(1, "/out/x")`, Setup: func(*hdfs.FS) { panic("setup") }}
	garbage := JobSpec{Tenant: "garbage", Source: "x = = 1", Arrival: 1}
	for _, c := range append(prefetchCases()[:1], prefetchCase{"failing", demoCluster(), []JobSpec{panics, garbage}, DefaultOptions()}) {
		before := runtime.NumGoroutine()
		rep, err := Run(c.cc, c.jobs, c.o)
		if err != nil {
			t.Fatal(err)
		}
		// A worker counts itself out of the pool's WaitGroup just before
		// it returns, so give the scheduler a moment to retire it.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before Run, %d after", c.name, before, n)
		}
		if c.name != "failing" {
			continue
		}
		for _, tn := range rep.Tenants {
			if tn.Served || tn.Error == "" {
				t.Errorf("%s: served %v, error %q; want a failed job", tn.Tenant, tn.Served, tn.Error)
			}
		}
	}
}
