package workload

import (
	"fmt"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
)

// A program is compiled only where one is consumed — by the optimizer on a
// plan-cache miss and by the runtime before a simulate. These tests pin the
// workload.compiles counter to that rule.

// fixedWidthJob is a LinregDS scenario job that runs at exactly width w.
func fixedWidthJob(tenant, size string, at float64, w int) JobSpec {
	return JobSpec{
		Tenant: tenant, Script: scripts.LinregDS(),
		Scenario: datagen.New(size, 1000, 1.0), Arrival: at,
		Elastic: ElasticSpec{MinContainers: w, DesiredContainers: w, MaxContainers: w},
	}
}

// TestReoptCheckDoesNotCompile: same-key jobs leave a roomy cluster one by
// one, and every departure re-checks the jobs still running (§5). A check
// that hits the plan cache needs the job's identity only, so each job
// compiles once — for its own simulate. With the cache disabled every
// lookup misses, and a miss needs a program for the optimizer.
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
		if rep.Unserved != 0 || rep.MaxConcurrent != n || rep.ReoptChecks < n {
			t.Fatalf("cache %d: want %d overlapping served jobs and their checks, got %d unserved, peak %d, checks %d",
				cacheEntries, n, rep.Unserved, rep.MaxConcurrent, rep.ReoptChecks)
		}
		want := int64(n)
		if cacheEntries < 0 {
			want += int64(rep.ReoptChecks)
		}
		if got := o.Trace.Metrics().Counter("workload.compiles"); got != want {
			t.Errorf("cache %d: %d compiles for %d jobs and %d re-optimization checks, want %d",
				cacheEntries, got, n, rep.ReoptChecks, want)
		}
	}
}

// TestBlockedHeadCompilesOnce: a queued job that place cannot fit is tried
// again at every settle. While its live and clamped keys hit, the attempts
// cost no compile: the job compiles on its first attempt (to learn its
// identity) and once more before its simulate, however long it waited. A
// settle that moves the largest free chunk puts the job under a clamped
// view the cache has never seen — a genuine miss, one compile. The head is
// a width-`nodes` job that needs a container on every node while a blocker
// holds most of node 0; elasticity ticks supply the settles.
func TestBlockedHeadCompilesOnce(t *testing.T) {
	rows := []struct {
		name         string
		policy       Policy
		nodes, tails int
		cacheEntries int
		// misses is how many never-seen clamped views the head meets while
		// it waits; bypassed reports whether the tail overtakes it.
		misses   int64
		bypassed bool
	}{
		// Three nodes: the tail (if it bypasses) lands on node 1 and node 2
		// stays empty, so the largest free chunk never moves.
		{name: "fifo", policy: PolicyFIFO, nodes: 3, tails: 1},
		{name: "regret-bypassed", policy: PolicyRegret, nodes: 3, tails: 1, bypassed: true},
		// Two nodes: three bypassing tails fill the only empty node up to
		// its last 512 MB, which holds one container of the head's clamped
		// optimum but not two.
		{name: "regret-chunk-moves", policy: PolicyRegret, nodes: 2, tails: 3, misses: 1, bypassed: true},
		// No cache: every attempt misses, so every attempt compiles.
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
			if !stepChecked(t, s) {
				t.Fatalf("%s: head never admitted", row.name)
			}
			if waiting && head.state == jsQueued {
				k++
				bypassed = bypassed || tail.state == jsRunning
			}
		}
		if k < 3 {
			t.Fatalf("%s: head waited through %d settles, want >= 3", row.name, k)
		}
		if bypassed != row.bypassed {
			t.Errorf("%s: tail bypassed the head = %v, want %v", row.name, bypassed, row.bypassed)
		}
		// Every other job was placed on its first attempt: one compile each.
		others := int64(0)
		for _, j := range s.jobs {
			if j != head && j.state != jsPending && j.state != jsQueued {
				others++
			}
		}
		want := 2 + row.misses
		if row.cacheEntries < 0 {
			// First attempt, k retries, and the attempt that fits (whose
			// program goes on to simulate), plus every §5 check so far.
			want = int64(k) + 2 + int64(s.rep.ReoptChecks)
		}
		if got := o.Trace.Metrics().Counter("workload.compiles") - others; got != want {
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
			compiles := o.Trace.Metrics().Counter
			checks := s.rep.ReoptChecks
			var timed int64
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; {
				depart := s.evs[0].kind == evDepart
				before := compiles("workload.compiles")
				if depart {
					b.StartTimer()
				}
				s.Step()
				if depart {
					b.StopTimer()
					timed += compiles("workload.compiles") - before
					i++
				}
			}
			if got := s.rep.ReoptChecks - checks; got != b.N*r || s.rep.ReoptChanges != 0 {
				b.Fatalf("not a steady hot state: %d checks over %d departures, %d changes", got, b.N, s.rep.ReoptChanges)
			}
			b.ReportMetric(float64(timed)/float64(b.N), "compiles/op")
		})
	}
}
