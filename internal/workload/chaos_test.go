package workload

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
	"elasticml/internal/yarn"
)

// oneNodeCluster is the smallest useful chaos target: every failure of
// node 0 necessarily hits whatever is running.
func oneNodeCluster() conf.Cluster {
	cc := demoCluster()
	cc.Nodes = 1
	return cc
}

// linregDSJob is a single ~55s scenario job — long enough that flaps
// spaced tens of seconds apart interrupt it repeatedly.
func linregDSJob() []JobSpec {
	return []JobSpec{{
		Tenant: "victim", Script: scripts.LinregDS(),
		Scenario: datagen.New("S", 1000, 1.0), Arrival: 0,
	}}
}

// TestChaosRetryBudgetExhausted: flaps arriving faster than the job can
// restart burn the retry budget; the tenant fails permanently with the
// typed terminal error (errors.Is against the sentinel, errors.As for the
// per-tenant detail).
func TestChaosRetryBudgetExhausted(t *testing.T) {
	o := DefaultOptions()
	o.Recovery = RecoveryPolicy{Kind: RecoveryNaive, MaxRetries: 2}
	// The backoff waits 2 s after the first loss and 4 s after the second,
	// so each flap lands on the restarted job.
	o.Chaos = fault.ChaosPlan{Flaps: []fault.Flap{
		{Node: 0, At: 1, RestoreAfter: 0.5},
		{Node: 0, At: 4, RestoreAfter: 0.5},
		{Node: 0, At: 9, RestoreAfter: 0.5},
	}}
	rep, err := runChecked(t, oneNodeCluster(), linregDSJob(), o)
	if err != nil {
		t.Fatal(err)
	}
	tn := rep.Tenants[0]
	if !tn.FailedPermanently || tn.Served {
		t.Fatalf("want permanent failure, got %+v", tn)
	}
	if !errors.Is(tn.Err, ErrRetryBudgetExhausted) {
		t.Errorf("errors.Is(ErrRetryBudgetExhausted) false for %v", tn.Err)
	}
	var rex *RetryExhaustedError
	if !errors.As(tn.Err, &rex) {
		t.Fatalf("errors.As(*RetryExhaustedError) false for %v", tn.Err)
	}
	if rex.Tenant != "victim" || rex.Retries != 3 || rex.Budget != 2 {
		t.Errorf("typed detail = %+v, want victim/3/2", rex)
	}
	if tn.Error == "" {
		t.Error("terminal error message missing from the report")
	}
	if rep.FailedPermanently != 1 {
		t.Errorf("report FailedPermanently = %d, want 1", rep.FailedPermanently)
	}
	if rep.Unserved != 0 {
		t.Errorf("permanent failure double-counted as unserved: %d", rep.Unserved)
	}
}

// TestChaosCheckpointBeatsNaive is the tentpole comparison: under an
// identical flap schedule, checkpoint/restart resumes from block
// boundaries and finishes, while naive restart-from-scratch never
// completes a window and exhausts its budget — with strictly more wasted
// simulated work.
func TestChaosCheckpointBeatsNaive(t *testing.T) {
	chaos := fault.ChaosPlan{Flaps: []fault.Flap{
		{Node: 0, At: 20, RestoreAfter: 0.5},
		{Node: 0, At: 50, RestoreAfter: 0.5},
		{Node: 0, At: 80, RestoreAfter: 0.5},
		{Node: 0, At: 110, RestoreAfter: 0.5},
		{Node: 0, At: 140, RestoreAfter: 0.5},
		{Node: 0, At: 170, RestoreAfter: 0.5},
		{Node: 0, At: 200, RestoreAfter: 0.5},
		{Node: 0, At: 230, RestoreAfter: 0.5},
	}}
	run := func(kind RecoveryKind) *Report {
		o := DefaultOptions()
		o.Recovery = RecoveryPolicy{Kind: kind, MaxRetries: 5}
		o.Chaos = chaos
		rep, err := runChecked(t, oneNodeCluster(), linregDSJob(), o)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ck := run(RecoveryCheckpoint)
	nv := run(RecoveryNaive)

	if !ck.Tenants[0].Served {
		t.Fatalf("checkpoint/restart did not finish the job: %+v", ck.Tenants[0])
	}
	if ck.Tenants[0].Requeues < 1 {
		t.Error("checkpoint run saw no interruption — chaos schedule missed the job")
	}
	if !nv.Tenants[0].FailedPermanently {
		t.Fatalf("naive restart should exhaust its budget: %+v", nv.Tenants[0])
	}
	served := func(r *Report) int {
		n := 0
		for _, tn := range r.Tenants {
			if tn.Served {
				n++
			}
		}
		return n
	}
	if served(ck) <= served(nv) {
		t.Errorf("checkpoint served %d, naive served %d — want strictly more", served(ck), served(nv))
	}
	if ck.WastedWork >= nv.WastedWork {
		t.Errorf("checkpoint wasted %.1fs, naive wasted %.1fs — want strictly less",
			ck.WastedWork, nv.WastedWork)
	}
	if ck.WastedWork <= 0 || nv.WastedWork <= 0 {
		t.Errorf("both runs should record wasted work: ck %.1f nv %.1f", ck.WastedWork, nv.WastedWork)
	}
}

// breakerCluster spreads four nodes so a correlated group loss can trip
// the breaker without touching the running tenant.
func breakerCluster() conf.Cluster {
	cc := demoCluster()
	cc.Nodes = 4
	return cc
}

func breakerJobs() []JobSpec {
	sc := datagen.New("XS", 1000, 1.0)
	return []JobSpec{
		{Tenant: "early", Script: scripts.LinregCG(), Scenario: sc, Arrival: 0},
		{Tenant: "storm-hit", Script: scripts.LinregCG(), Scenario: sc, Arrival: 12},
		{Tenant: "late", Script: scripts.LinregCG(), Scenario: sc, Arrival: 40},
		{Tenant: "later", Script: scripts.LinregCG(), Scenario: sc, Arrival: 45},
	}
}

func breakerOptions(shed bool) Options {
	o := DefaultOptions()
	// Group loss of nodes {1,2,3} at t=10 records three failures inside
	// the window — the breaker opens at 10 and half-opens at 30.
	o.Chaos = fault.ChaosPlan{Groups: []fault.GroupFailure{
		{Nodes: []int{1, 2, 3}, At: 10, RestoreAfter: 5},
	}}
	o.Breaker = BreakerPolicy{Enabled: true, Shed: shed}
	return o
}

// TestChaosBreakerSheds: an open breaker in shed mode rejects the tenant
// arriving mid-outage with the typed error, then half-opens on schedule
// and serves the post-cooldown arrivals.
func TestChaosBreakerSheds(t *testing.T) {
	rep, err := runChecked(t, breakerCluster(), breakerJobs(), breakerOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	byTenant := map[string]TenantResult{}
	for _, tn := range rep.Tenants {
		byTenant[tn.Tenant] = tn
	}
	if !byTenant["early"].Served {
		t.Error("pre-outage tenant should be served")
	}
	hit := byTenant["storm-hit"]
	if !hit.Shed || hit.Served {
		t.Fatalf("mid-outage tenant should be shed, got %+v", hit)
	}
	if !errors.Is(hit.Err, ErrAdmissionShed) {
		t.Errorf("errors.Is(ErrAdmissionShed) false for %v", hit.Err)
	}
	if !byTenant["late"].Served || !byTenant["later"].Served {
		t.Error("post-cooldown tenants should be served through the half-open breaker")
	}
	if rep.Shed != 1 {
		t.Errorf("report Shed = %d, want 1", rep.Shed)
	}
	if rep.BreakerTrips < 1 {
		t.Error("breaker never tripped")
	}
	if rep.Unserved != 0 {
		t.Errorf("shed tenant double-counted as unserved: %d", rep.Unserved)
	}
}

// TestChaosBreakerDegrades: the default open-breaker behaviour downgrades
// mid-outage arrivals to the degraded-fallback plan instead of rejecting
// them — everyone is still served.
func TestChaosBreakerDegrades(t *testing.T) {
	rep, err := runChecked(t, breakerCluster(), breakerJobs(), breakerOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	var hit TenantResult
	for _, tn := range rep.Tenants {
		if tn.Tenant == "storm-hit" {
			hit = tn
		}
		if !tn.Served {
			t.Errorf("%s not served under degrade mode", tn.Tenant)
		}
	}
	if !hit.BreakerDegraded {
		t.Errorf("mid-outage tenant should carry the breaker-degraded flag: %+v", hit)
	}
	if rep.BreakerDegraded < 1 || rep.Shed != 0 {
		t.Errorf("report breaker counters wrong: degraded %d shed %d", rep.BreakerDegraded, rep.Shed)
	}
}

// TestChaosSlowNodeSpeculation: a straggler node stretches resident jobs
// by the speculation-capped factor — with backups on, a 4x straggler
// costs at most the 1.5x cap; with speculation off, the full factor.
func TestChaosSlowNodeSpeculation(t *testing.T) {
	run := func(chaos fault.ChaosPlan, pol TaskPolicy) TenantResult {
		o := DefaultOptions()
		o.Chaos = chaos
		o.TaskPolicy = pol
		rep, err := runChecked(t, oneNodeCluster(), linregDSJob(), o)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Tenants[0]
	}
	slow := fault.ChaosPlan{SlowNodes: []fault.SlowNode{{Node: 0, At: 20, Factor: 4}}}
	specOn := TaskPolicy{Speculative: true}

	base := run(fault.ChaosPlan{}, specOn)
	capped := run(slow, specOn)
	uncapped := run(slow, TaskPolicy{})

	if !base.Served || !capped.Served || !uncapped.Served {
		t.Fatal("slow nodes must stretch jobs, not kill them")
	}
	if capped.SlowEpisodes != 1 || uncapped.SlowEpisodes != 1 {
		t.Errorf("slow episodes = %d/%d, want 1/1", capped.SlowEpisodes, uncapped.SlowEpisodes)
	}
	if !(base.Latency < capped.Latency && capped.Latency < uncapped.Latency) {
		t.Errorf("latency order wrong: base %.1f, speculated %.1f, unspeculated %.1f",
			base.Latency, capped.Latency, uncapped.Latency)
	}
	// The stretch ratios over the post-episode remainder bound each other:
	// speculation caps 4x at 1.5x.
	if uncapped.Latency-base.Latency < 2*(capped.Latency-base.Latency) {
		t.Errorf("speculation cap too weak: added %.1fs capped vs %.1fs uncapped",
			capped.Latency-base.Latency, uncapped.Latency-base.Latency)
	}
}

// TestReoptMoveTakesTheNewNodesSpeed: a §5 change that moves a
// single-container job's AM container to another node stretches the rest of
// the job by that node's speed, not the old one's, and the new node's later
// speed changes reach the job.
func TestReoptMoveTakesTheNewNodesSpeed(t *testing.T) {
	cc := demoCluster()
	cc.Nodes, cc.MemPerNode, cc.MaxAlloc = 2, 2*conf.GB, 2*conf.GB
	s, err := New(cc, DefaultOptions()) // speculation off: slowdown = speed
	if err != nil {
		t.Fatal(err)
	}
	// Worst-fit placement: the AM lands on node 0, and a filler on each
	// node, one of them released again, leaves node 1 the larger hole.
	oldRes := conf.NewResources(512*conf.MB, 512*conf.MB, 1)
	am, _ := s.rm.Allocate(cc.ContainerSize(oldRes.CP))
	f1, _ := s.rm.Allocate(conf.GB)
	f0, _ := s.rm.Allocate(512 * conf.MB)
	if am.Node != 0 || f1.Node != 1 || f0.Node != 0 || s.rm.Release(f1.ID) != nil {
		t.Fatalf("placement: AM on %d, fillers on %d and %d", am.Node, f1.Node, f0.Node)
	}
	if err := s.rm.SetNodeSpeed(0, 3); err != nil {
		t.Fatal(err)
	}
	j := &job{state: jsRunning, res: oldRes, cost: 100, conts: []yarn.Container{am},
		slow: s.slowdown(3), finish: 300}
	s.jobs, s.running = []*job{j}, 1

	newRes := conf.NewResources(conf.GB, 512*conf.MB, 1)
	s.applyReopt(j, newRes, 100, trigDeparture)
	if j.conts[0].Node != 1 {
		t.Fatalf("AM container on node %d after the reopt, want 1", j.conts[0].Node)
	}
	if j.slow != 1 || math.Abs(j.finish-(reoptCharge+100)) > 1e-9 {
		t.Errorf("after moving to the full-speed node: slow %g, finish %g; want 1, %g",
			j.slow, j.finish, reoptCharge+100)
	}
	s.applyNodeSpeed(0, 1, "test")
	s.applyNodeSpeed(1, 2, "test")
	if j.slow != 2 || j.result.SlowEpisodes != 1 || math.Abs(j.finish-2*(reoptCharge+100)) > 1e-9 {
		t.Errorf("node 1 slowed 2x: slow %g, %d episodes, finish %g; want 2, 1, %g",
			j.slow, j.result.SlowEpisodes, j.finish, 2*(reoptCharge+100))
	}
}

// TestChaosFlapCacheReuse: a transient flap returns the cluster to its
// original shape, so the victim's re-admission hits the shared plan cache
// and lands on the identical configuration — the cache stays correct under
// oscillating capacity because cluster geometry is part of the key.
func TestChaosFlapCacheReuse(t *testing.T) {
	base, err := runChecked(t, oneNodeCluster(), linregDSJob(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Chaos = fault.ChaosPlan{Flaps: []fault.Flap{{Node: 0, At: 20, RestoreAfter: 0.5}}}
	rep, err := runChecked(t, oneNodeCluster(), linregDSJob(), o)
	if err != nil {
		t.Fatal(err)
	}
	tn := rep.Tenants[0]
	if tn.Requeues != 1 || !tn.Served {
		t.Fatalf("want one interrupted-but-served tenant, got %+v", tn)
	}
	if !tn.CacheHit {
		t.Error("re-admission after a restoring flap should hit the plan cache")
	}
	if tn.Config != base.Tenants[0].Config {
		t.Errorf("post-flap config %s differs from uninterrupted %s", tn.Config, base.Tenants[0].Config)
	}
	if tn.OutputHash != base.Tenants[0].OutputHash {
		t.Error("post-flap output hash differs from uninterrupted run")
	}
	if rep.NodeRestores != 1 {
		t.Errorf("node restores = %d, want 1", rep.NodeRestores)
	}
}

// TestChaosCheckpointEquivalence: a job killed mid-run and resumed from
// its checkpoint produces byte-identical outputs and print streams to the
// uninterrupted run, under cluster shapes derived from all six verify
// resource configurations — interruption placement is a scheduling detail,
// never a semantic one.
func TestChaosCheckpointEquivalence(t *testing.T) {
	prog := verify.Corpus()[0]
	jobs := []JobSpec{{
		Tenant: "equiv", Source: prog.Source, Params: prog.Params,
		Setup: prog.Setup, Arrival: 0,
	}}
	for _, vc := range verify.DefaultConfigs() {
		vc := vc
		t.Run(vc.Name, func(t *testing.T) {
			cc := demoCluster()
			if vc.Cores > 0 {
				cc.CoresPerNode = vc.Cores
			}
			if vc.HDFSBlock > 0 {
				cc.HDFSBlockSize = vc.HDFSBlock
			}
			if !vc.Optimize {
				ma := conf.Bytes(float64(vc.CP) * cc.ContainerOverhead)
				if ma < cc.MinAlloc {
					ma = cc.MinAlloc
				}
				if ma > cc.MemPerNode {
					ma = cc.MemPerNode
				}
				cc.MaxAlloc = ma
			}
			o := DefaultOptions()
			smooth, err := runChecked(t, cc, jobs, o)
			if err != nil {
				t.Fatal(err)
			}
			st := smooth.Tenants[0]
			if !st.Served {
				t.Fatalf("uninterrupted run unserved: %+v", st)
			}
			// Kill both nodes mid-run — wherever the container landed —
			// and restore them before the retry backoff expires.
			o.Chaos = fault.ChaosPlan{Groups: []fault.GroupFailure{
				{Nodes: []int{0, 1}, At: st.Finished / 2, RestoreAfter: 0.5},
			}}
			bumpy, err := runChecked(t, cc, jobs, o)
			if err != nil {
				t.Fatal(err)
			}
			bt := bumpy.Tenants[0]
			if bt.Requeues < 1 {
				t.Fatalf("the kill missed the job (requeues 0, finished %.2f)", st.Finished)
			}
			if !bt.Served {
				t.Fatalf("killed+resumed run unserved: %+v", bt)
			}
			if bt.OutputHash != st.OutputHash {
				t.Errorf("output hash diverged: interrupted %s vs uninterrupted %s", bt.OutputHash, st.OutputHash)
			}
			if bt.Prints != st.Prints {
				t.Errorf("print stream diverged:\ninterrupted: %q\nuninterrupted: %q", bt.Prints, st.Prints)
			}
			if len(bt.Outputs) != len(st.Outputs) {
				t.Errorf("output count diverged: %d vs %d", len(bt.Outputs), len(st.Outputs))
			}
		})
	}
}

// chaosDemo is the kitchen-sink chaos workload pinned by the determinism
// tests and the CI chaos gate: every regime at once (group loss, flaps,
// a straggler node, a recovering storm), breaker on, over sixteen tenants.
func chaosDemo() (conf.Cluster, []JobSpec, Options) {
	cc := demoCluster()
	cc.Nodes = 4
	o := DefaultOptions()
	o.TaskPolicy.Speculative = true
	o.Breaker = BreakerPolicy{Enabled: true}
	o.Chaos = fault.ChaosPlan{
		Seed:   42,
		Groups: []fault.GroupFailure{{Nodes: []int{2, 3}, At: 40, RestoreAfter: 15}},
		Flaps:  []fault.Flap{{Node: 1, At: 70, RestoreAfter: 5}},
		SlowNodes: []fault.SlowNode{
			{Node: 0, At: 25, Factor: 3, Duration: 30},
		},
		Storm: &fault.Storm{Start: 100, MeanGap: 8, Failures: 4, Recover: 10},
	}
	return cc, Generate(42, 16, 3), o
}

// runChaosDemo returns the marshalled report and Chrome trace of the
// kitchen-sink chaos workload; mutate, when non-nil, adjusts the service
// before it runs.
func runChaosDemo(t *testing.T, mutate func(*Service)) (reportJSON, trace []byte) {
	t.Helper()
	tr := obs.New(true)
	cc, jobs, o := chaosDemo()
	o.Trace = tr
	rep, err := runChecked(t, cc, jobs, o, mutate)
	if err != nil {
		t.Fatal(err)
	}
	var rj bytes.Buffer
	if err := rep.WriteJSON(&rj); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := tr.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	return rj.Bytes(), tb.Bytes()
}

// TestChaosDeterminismByteIdentical: the full chaos stack — correlated
// groups, flaps, stragglers, storms, breaker, recovery backoff — is a pure
// function of its inputs: repeated runs are byte-identical.
func TestChaosDeterminismByteIdentical(t *testing.T) {
	r1, t1 := runChaosDemo(t, nil)
	r2, t2 := runChaosDemo(t, nil)
	if !bytes.Equal(r1, r2) {
		t.Errorf("chaos report differs between identical runs:\n%s", diffLine(r1, r2))
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("chaos trace differs between identical runs:\n%s", diffLine(t1, t2))
	}
}

// TestChaosKitchenSinkActivity pins that the determinism workload actually
// exercises every chaos path (otherwise the byte-identity above is vacuous).
func TestChaosKitchenSinkActivity(t *testing.T) {
	cc, jobs, o := chaosDemo()
	rep, err := runChecked(t, cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeFailures < 3 {
		t.Errorf("node failures = %d, want >= 3 (group + flap + storm)", rep.NodeFailures)
	}
	if rep.NodeRestores < 3 {
		t.Errorf("node restores = %d, want >= 3", rep.NodeRestores)
	}
	if rep.SlowNodeEvents < 2 {
		t.Errorf("slow-node events = %d, want 2 (episode start + end)", rep.SlowNodeEvents)
	}
	if rep.Requeues < 1 {
		t.Error("chaos demo produced no requeues")
	}
	if rep.WastedWork <= 0 {
		t.Error("chaos demo recorded no wasted work")
	}
}
