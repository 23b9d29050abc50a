package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/verify"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden policy reports")

// TestElasticSpecNormalize: the zero spec is a rigid single-container job
// (the pre-elasticity behavior), and normalization repairs ordering.
func TestElasticSpecNormalize(t *testing.T) {
	z := ElasticSpec{}.normalized()
	if z.MinContainers != 1 || z.DesiredContainers != 1 || z.MaxContainers != 1 || z.Step != 1 {
		t.Errorf("zero spec normalized to %+v, want 1/1/1/1", z)
	}
	if !z.rigid() {
		t.Error("zero spec must be rigid")
	}
	n := ElasticSpec{DesiredContainers: 3}.normalized()
	if n.MinContainers != 1 || n.MaxContainers != 3 {
		t.Errorf("desired-only spec normalized to %+v", n)
	}
	if err := (ElasticSpec{MinContainers: 4, MaxContainers: 2}).validate(); err == nil {
		t.Error("min > max must not validate")
	}
	if err := (ElasticSpec{MinContainers: -1}).validate(); err == nil {
		t.Error("negative field must not validate")
	}
}

// TestNewRejectsBadTick: a run description whose elastic tick is negative
// or below one simulated second fails New with ErrBadTick at once, instead
// of spinning through tick events; 0 (off) and ticks of a second or more
// are accepted.
func TestNewRejectsBadTick(t *testing.T) {
	for _, tick := range []float64{1e-12, 0.5, -5} {
		start := time.Now()
		spec, err := LoadRunSpec(strings.NewReader(fmt.Sprintf(`{"elastic": {"tick": %g}, "generate": {"tenants": 2, "seed": 1}}`, tick)))
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := spec.JobSpecs()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(spec.Cluster, jobs, spec.Options); !errors.Is(err, ErrBadTick) {
			t.Errorf("tick %g: err = %v, want ErrBadTick", tick, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("tick %g: rejected after %v, want under a second", tick, d)
		}
	}
	for _, tick := range []float64{0, minTick, 5} {
		o := DefaultOptions()
		o.Elastic.Tick = tick
		if _, err := New(conf.DefaultCluster(), o); err != nil {
			t.Errorf("tick %g: %v", tick, err)
		}
	}
}

// TestGrowShrinkEquivalence: a job grown and then shrunk mid-run — with the
// §5 re-optimization and re-simulation at each width change — produces
// byte-identical outputs and print streams to the fixed-width run, under
// cluster shapes derived from all six verify resource configurations.
// Width, like interruption placement in TestChaosCheckpointEquivalence, is
// a scheduling detail, never a semantic one.
func TestGrowShrinkEquivalence(t *testing.T) {
	prog := verify.Corpus()[0]
	rigid := []JobSpec{{
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
			smooth, err := runChecked(t, cc, rigid, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			st := smooth.Tenants[0]
			if !st.Served {
				t.Fatalf("fixed-width run unserved: %+v", st)
			}

			// Drive the malleable run by hand so grow and shrink both fire
			// deterministically regardless of the program's length: widen by
			// one step as soon as the job starts, let part of the schedule
			// commit, then give the step back at the next block boundary.
			s, err := New(cc, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			s.submit(JobSpec{
				Tenant: "equiv", Source: prog.Source, Params: prog.Params,
				Setup: prog.Setup, Arrival: 0,
				Elastic: ElasticSpec{MinContainers: 1, DesiredContainers: 1, MaxContainers: 2},
			})
			s.ScheduleChaos()
			j := s.jobs[0]
			for j.state != jsRunning && stepChecked(t, s) {
			}
			if j.state != jsRunning {
				t.Fatal("job never started")
			}
			if !s.scheduleResize(j, 2) {
				t.Fatal("could not schedule the grow")
			}
			for j.result.Grows == 0 && stepChecked(t, s) {
			}
			if j.result.Grows != 1 || len(j.conts) != 2 {
				t.Fatalf("grow did not apply: grows %d width %d", j.result.Grows, len(j.conts))
			}
			if j.id.run.blocks >= 2 {
				// Stop the event loop mid-run with a one-shot tick, then book
				// the shrink at the next interior block boundary — committed
				// width-2 work survives, partial-block work is re-done.
				mid := j.execStart + 0.5*(j.finish-j.execStart)
				s.push(event{at: mid, kind: evTick})
				for s.now < mid && j.state == jsRunning && stepChecked(t, s) {
				}
			}
			// Single-block programs have no interior boundary; the charge
			// window right after the grow is the only legal shrink point.
			if j.state != jsRunning || !s.scheduleResize(j, 1) {
				t.Fatalf("could not schedule the shrink at %.2f (state %v, finish %.2f, blocks %d)",
					s.now, j.state, j.finish, j.id.run.blocks)
			}
			for stepChecked(t, s) {
			}
			rep := s.Finalize()
			bt := rep.Tenants[0]
			if !bt.Served {
				t.Fatalf("resized run unserved: %+v", bt)
			}
			if bt.Grows < 1 || bt.Shrinks < 1 {
				t.Fatalf("want at least one grow and one shrink, got %d/%d", bt.Grows, bt.Shrinks)
			}
			if bt.OutputHash != st.OutputHash {
				t.Errorf("output hash diverged: resized %s vs fixed %s", bt.OutputHash, st.OutputHash)
			}
			if bt.Prints != st.Prints {
				t.Errorf("print stream diverged:\nresized: %q\nfixed: %q", bt.Prints, st.Prints)
			}
			if len(bt.Outputs) != len(st.Outputs) {
				t.Errorf("output count diverged: %d vs %d", len(bt.Outputs), len(st.Outputs))
			}
		})
	}
}

// elasticScenario is the policy test corpus: the skewed-burst malleable
// trace on a deliberately tight cluster, with a mid-run node flap so the
// elasticity machinery and the failure machinery interleave.
func elasticScenario(pol Policy) (conf.Cluster, []JobSpec, Options) {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	cc.MemPerNode = 1 * conf.GB
	cc.MaxAlloc = 1 * conf.GB
	o := DefaultOptions()
	o.Policy = pol
	o.Elastic.Tick = 5
	o.Chaos = fault.ChaosPlan{Flaps: []fault.Flap{{Node: 1, At: 30, RestoreAfter: 2}}}
	return cc, GenerateSkewedBurst(42, 12), o
}

// runPolicy executes the policy corpus and returns the marshalled report.
func runPolicy(t *testing.T, pol Policy) []byte {
	t.Helper()
	cc, jobs, o := elasticScenario(pol)
	rep, err := runChecked(t, cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPolicyDeterminism: every policy's full report is byte-identical
// across two runs of the elastic corpus — grow/shrink planning, bypass
// admission, and width-clamped re-optimization are pure functions of the
// inputs. This is the policy-determinism CI gate.
func TestPolicyDeterminism(t *testing.T) {
	for _, pol := range []Policy{PolicyFIFO, PolicyFair, PolicyRegret} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			r1 := runPolicy(t, pol)
			r2 := runPolicy(t, pol)
			if !bytes.Equal(r1, r2) {
				t.Errorf("report differs between identical runs:\n%s", diffLine(r1, r2))
			}
		})
	}
}

// policySummary is the golden-pinned digest of one policy run.
type policySummary struct {
	Policy           string  `json:"policy"`
	Served           int     `json:"served"`
	Shed             int     `json:"shed"`
	FailedPerm       int     `json:"failed_permanently"`
	Requeues         int     `json:"requeues"`
	P95QueueDelay    float64 `json:"p95_queue_delay"`
	P95Latency       float64 `json:"p95_latency"`
	Makespan         float64 `json:"makespan"`
	Grows            int     `json:"grows"`
	Shrinks          int     `json:"shrinks"`
	VoluntaryShrinks int     `json:"voluntary_shrinks"`
}

// TestPolicyGoldenReports pins each policy's scheduling outcome on the
// elastic corpus — served counts, queue delays, grow/shrink activity — as a
// golden file. Any change to admission order, width targets, or resize
// timing shows up as a diff; refresh intentionally with
//
//	go test ./internal/workload -run TestPolicyGoldenReports -update
func TestPolicyGoldenReports(t *testing.T) {
	var sums []policySummary
	for _, pol := range []Policy{PolicyFIFO, PolicyFair, PolicyRegret} {
		cc, jobs, o := elasticScenario(pol)
		rep, err := runChecked(t, cc, jobs, o)
		if err != nil {
			t.Fatal(err)
		}
		sum := policySummary{
			Policy:           pol.String(),
			Shed:             rep.Shed,
			FailedPerm:       rep.FailedPermanently,
			P95QueueDelay:    rep.P95QueueDelay,
			P95Latency:       rep.P95Latency,
			Makespan:         rep.Makespan,
			Grows:            rep.Grows,
			Shrinks:          rep.Shrinks,
			VoluntaryShrinks: rep.VoluntaryShrinks,
		}
		for _, tn := range rep.Tenants {
			if tn.Served {
				sum.Served++
			}
			sum.Requeues += tn.Requeues
		}
		sums = append(sums, sum)
	}
	got, err := json.MarshalIndent(sums, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_policies.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("policy reports differ from %s (re-run with -update if intended):\n%s",
			path, diffLine(want, got))
	}
}

// TestRequeueClampsWidthToShrunkenCluster is the regression test for the
// requeue-width bug: a failure victim re-enters admission at the front of
// the queue, and before the fix it kept asking for its original desired
// width even when the cluster had permanently shrunk below it — under FIFO
// (no voluntary step-down) the head blocked forever. The clamp caps the
// request at what the live cluster could ever hold.
func TestRequeueClampsWidthToShrunkenCluster(t *testing.T) {
	cc := conf.DefaultCluster()
	cc.Nodes = 4
	cc.MemPerNode = 512 * conf.MB
	cc.MaxAlloc = 512 * conf.MB
	jobs := []JobSpec{{
		Tenant: "wide", Script: linregDSJob()[0].Script,
		Scenario: linregDSJob()[0].Scenario, Arrival: 0,
		Elastic: ElasticSpec{MinContainers: 1, DesiredContainers: 4, MaxContainers: 4},
	}}
	o := DefaultOptions()
	o.Recovery = RecoveryPolicy{Kind: RecoveryCheckpoint, MaxRetries: 5}
	// Two nodes die for good mid-run: one of them necessarily holds a
	// container of the width-4 job (one per node), so the job requeues
	// against a cluster that can now hold only two containers.
	o.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{2, 3}, At: 8}}
	rep, err := runChecked(t, cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	tn := rep.Tenants[0]
	if tn.Requeues < 1 {
		t.Fatalf("failures missed the job: %+v", tn)
	}
	if !tn.Served {
		t.Fatalf("requeued job never served — width not clamped to the shrunken cluster: %+v", tn)
	}
	if tn.Width > 2 {
		t.Errorf("re-admitted at width %d on a 2-node cluster that holds 2 containers", tn.Width)
	}
	if tn.MinWidth > 2 {
		t.Errorf("min width %d, want <= 2 after the clamped re-admission", tn.MinWidth)
	}
}
