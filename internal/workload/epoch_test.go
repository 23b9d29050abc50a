package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
	"elasticml/scenarios"
)

// minibatchCorpusProgram fetches a mini-batch program from the verify
// corpus by name, so the workload tests run exactly the differentially
// verified sources and inputs.
func minibatchCorpusProgram(t *testing.T, name string) verify.Program {
	t.Helper()
	for _, p := range verify.Corpus() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("verify corpus has no program %q", name)
	return verify.Program{}
}

// TestEpochShrinkEquivalence: an epoch-structured job grown at an epoch
// boundary and shrunk mid-epoch — where progress snaps back to the last
// completed batch and the partial batch is re-done — produces byte-identical
// outputs and print streams to the uninterrupted fixed-width run, under
// cluster shapes derived from all six verify resource configurations.
// Epoch-boundary elasticity, like block-boundary elasticity, is a
// scheduling detail, never a semantic one.
func TestEpochShrinkEquivalence(t *testing.T) {
	prog := minibatchCorpusProgram(t, "MinibatchLR")
	rigid := []JobSpec{{
		Tenant: "epoch-equiv", Source: prog.Source, Params: prog.Params,
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

			s, err := New(cc, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			s.submit(JobSpec{
				Tenant: "epoch-equiv", Source: prog.Source, Params: prog.Params,
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
			// The corpus MinibatchLR runs 3 epochs x 3 batches; admission must
			// have detected that structure and set batch-granular checkpoints.
			if j.id.run.epochs != 3 || j.id.run.blocks != 9 {
				t.Fatalf("epoch structure not detected at admission: epochs %d blocks %d",
					j.id.run.epochs, j.id.run.blocks)
			}
			if !s.scheduleResize(j, 2) {
				t.Fatal("could not schedule the grow")
			}
			for j.result.Grows == 0 && stepChecked(t, s) {
			}
			if j.result.Grows != 1 || len(j.conts) != 2 {
				t.Fatalf("grow did not apply: grows %d width %d", j.result.Grows, len(j.conts))
			}
			// Stop the event loop strictly inside a batch: 0.37 of the
			// remaining span never lands on a multiple of 1/9 of progress.
			mid := j.execStart + 0.37*(j.finish-j.execStart)
			s.push(event{at: mid, kind: evTick})
			for s.now < mid && j.state == jsRunning && stepChecked(t, s) {
			}
			if j.state != jsRunning {
				t.Fatalf("job left the running state before the mid-epoch point")
			}
			// Mid-epoch semantics: a grow would wait for the next epoch
			// boundary, while a shrink is legal immediately.
			if growAt, ok := s.resizePoint(j, +1); ok {
				if growAt <= s.now {
					t.Errorf("mid-epoch grow point %.3f not in the future (now %.3f)", growAt, s.now)
				}
				p := j.ckpt + (growAt-j.execStart)/(j.finish-j.execStart)*(1-j.ckpt)
				if frac := p * float64(j.id.run.epochs); math.Abs(frac-math.Round(frac)) > 1e-6 {
					t.Errorf("grow point progress %.6f is not an epoch boundary (x%d = %.6f)",
						p, j.id.run.epochs, frac)
				}
			}
			if at, ok := s.resizePoint(j, -1); !ok || at != s.now {
				t.Errorf("mid-epoch shrink point = %.3f, %v; want immediate (%.3f)", at, ok, s.now)
			}
			if !s.scheduleResize(j, 1) {
				t.Fatalf("could not schedule the mid-epoch shrink at %.2f", s.now)
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
			// The shrink landed strictly inside a batch, so the partial batch
			// was re-done and must be accounted as wasted work.
			if rep.WastedWork <= 0 {
				t.Errorf("mid-epoch shrink accounted no wasted work")
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

// TestEpochShrinkWastedWork pins the WastedWork arithmetic of a mid-epoch
// shrink: the lost fraction is exactly the progress beyond the last
// completed batch, scaled by the job's total simulated work.
func TestEpochShrinkWastedWork(t *testing.T) {
	prog := minibatchCorpusProgram(t, "MinibatchLR")
	s, err := New(demoCluster(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.submit(JobSpec{
		Tenant: "epoch-waste", Source: prog.Source, Params: prog.Params,
		Setup: prog.Setup, Arrival: 0,
		Elastic: ElasticSpec{MinContainers: 1, DesiredContainers: 2, MaxContainers: 2},
	})
	s.ScheduleChaos()
	j := s.jobs[0]
	for j.state != jsRunning && stepChecked(t, s) {
	}
	if j.state != jsRunning {
		t.Fatal("job never started")
	}
	if len(j.conts) != 2 {
		t.Fatalf("admitted at width %d, want desired width 2", len(j.conts))
	}
	if j.id.run.epochs != 3 || j.id.run.blocks != 9 {
		t.Fatalf("epoch structure not detected: epochs %d blocks %d", j.id.run.epochs, j.id.run.blocks)
	}
	// Run 0.4 into the execution span: progress 0.4 is strictly between
	// batch boundaries 3/9 and 4/9.
	mid := j.execStart + 0.4*(j.finish-j.execStart)
	s.push(event{at: mid, kind: evTick})
	for s.now < mid && j.state == jsRunning && stepChecked(t, s) {
	}
	done := s.progressAt(j)
	total := j.id.run.simSeconds
	wantCk := math.Floor(done*float64(j.id.run.blocks)+1e-9) / float64(j.id.run.blocks)
	wantWaste := (done - wantCk) * total
	if wantWaste <= 0 {
		t.Fatalf("test landed on a batch boundary: progress %.6f", done)
	}
	if !s.scheduleResize(j, 1) {
		t.Fatal("could not schedule the shrink")
	}
	for j.result.Shrinks == 0 && stepChecked(t, s) {
	}
	if j.result.Shrinks != 1 || len(j.conts) != 1 {
		t.Fatalf("shrink did not apply: shrinks %d width %d", j.result.Shrinks, len(j.conts))
	}
	if j.ckpt != wantCk {
		t.Errorf("checkpoint snapped to %.6f, want last completed batch %.6f", j.ckpt, wantCk)
	}
	if math.Abs(j.result.WastedWork-wantWaste) > 1e-9 {
		t.Errorf("tenant wasted work %.9f, want (%.6f - %.6f) * %.3f = %.9f",
			j.result.WastedWork, done, wantCk, total, wantWaste)
	}
	if math.Abs(s.rep.WastedWork-wantWaste) > 1e-9 {
		t.Errorf("report wasted work %.9f, want %.9f", s.rep.WastedWork, wantWaste)
	}
	for stepChecked(t, s) {
	}
	rep := s.Finalize()
	if !rep.Tenants[0].Served {
		t.Fatalf("job unserved after shrink: %+v", rep.Tenants[0])
	}
}

// TestEpochDetectionScope: only programs with known for-loop trip counts
// get epoch-boundary semantics; the paper's closed-form and while-loop
// scripts keep the legacy block-boundary behavior (j.id.run.epochs == 0), which is
// what keeps the pre-epoch golden policy reports byte-identical.
func TestEpochDetectionScope(t *testing.T) {
	for _, c := range []struct {
		name       string
		wantEpochs int
	}{
		{"LinregDS", 0},
		{"LinregCG", 0},
		{"MinibatchLinreg", 3},
	} {
		prog := minibatchCorpusProgram(t, c.name)
		s, err := New(demoCluster(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		s.submit(JobSpec{
			Tenant: "scope", Source: prog.Source, Params: prog.Params,
			Setup: prog.Setup, Arrival: 0,
		})
		s.ScheduleChaos()
		j := s.jobs[0]
		for j.state != jsRunning && stepChecked(t, s) {
		}
		if j.state != jsRunning {
			t.Fatalf("%s never started", c.name)
		}
		if j.id.run.epochs != c.wantEpochs {
			t.Errorf("%s: epochs = %d, want %d", c.name, j.id.run.epochs, c.wantEpochs)
		}
		for stepChecked(t, s) {
		}
	}
}

// minibatchDetScenario is the mini-batch determinism corpus: the bursty
// epoch-structured trace on a tight cluster with a straggler episode, so
// epoch-boundary grows, mid-epoch shrinks, and speculation all interleave.
func minibatchDetScenario(pol Policy) (conf.Cluster, []JobSpec, Options) {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	cc.MemPerNode = 1 * conf.GB
	cc.MaxAlloc = 1 * conf.GB
	o := DefaultOptions()
	o.Policy = pol
	o.Elastic.Tick = 5
	o.Recovery.Kind = RecoveryCheckpoint
	o.Chaos = fault.ChaosPlan{Seed: 7, SlowNodes: []fault.SlowNode{
		{Node: 0, At: 15, Factor: 3, Duration: 40},
	}}
	return cc, GenerateMinibatch(42, 10), o
}

// TestMinibatchDeterminism: every policy's full report on the mini-batch
// trace is byte-identical across two runs — the epoch-window memo reuse
// and epoch-boundary resize planning are pure functions of the inputs.
// This backs the CI mini-batch determinism gate.
func TestMinibatchDeterminism(t *testing.T) {
	run := func(pol Policy) []byte {
		cc, jobs, o := minibatchDetScenario(pol)
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
	for _, pol := range []Policy{PolicyFIFO, PolicyFair, PolicyRegret} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			r1 := run(pol)
			r2 := run(pol)
			if !bytes.Equal(r1, r2) {
				t.Errorf("report differs between identical runs:\n%s", diffLine(r1, r2))
			}
		})
	}
}

// TestGenerateMinibatch: the trace generator is deterministic and draws
// epoch structure and malleability bounds inside the documented ranges.
func TestGenerateMinibatch(t *testing.T) {
	a, b := GenerateMinibatch(42, 12), GenerateMinibatch(42, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a) != 12 {
		t.Fatalf("got %d jobs, want 12", len(a))
	}
	prev := 0.0
	for i, j := range a {
		if j.Arrival < prev {
			t.Errorf("job %d arrival %.3f before predecessor %.3f", i, j.Arrival, prev)
		}
		prev = j.Arrival
		ep, _ := j.Script.Params["epochs"].(float64)
		nb, _ := j.Script.Params["batches"].(float64)
		if ep < 4 || ep > 6 || nb < 3 || nb > 5 {
			t.Errorf("job %d epochs/batches %v/%v outside 4..6 / 3..5", i, ep, nb)
		}
		e := j.Elastic
		if e.MinContainers != 1 || e.MaxContainers != 4 || e.DesiredContainers < 2 || e.DesiredContainers > 3 {
			t.Errorf("job %d elastic spec %+v outside the generator's bounds", i, e)
		}
	}
	if reflect.DeepEqual(GenerateMinibatch(43, 12), a) {
		t.Error("different seeds produced identical traces")
	}
}

// TestMinibatchScenarioFiles: the committed straggler and correlated-failure
// scenario files parse, embed a chaos plan valid for their documented
// cluster shapes, and carry per-job epoch overrides that clone rather than
// mutate the shared script parameter maps.
func TestMinibatchScenarioFiles(t *testing.T) {
	cases := []struct {
		path  string
		jobs  int
		nodes int
	}{
		{"minibatch_straggler.json", 10, 2},
		{"minibatch_corrfail.json", 8, 4},
	}
	for _, c := range cases {
		f, err := scenarios.FS.Open(c.path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := LoadRunSpec(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := spec.JobSpecs()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != c.jobs {
			t.Errorf("%s: %d jobs, want %d", c.path, len(jobs), c.jobs)
		}
		chaos := spec.Chaos
		if !chaos.Enabled() {
			t.Fatalf("%s: no embedded chaos plan", c.path)
		}
		if spec.Cluster.Nodes != c.nodes {
			t.Errorf("%s: cluster of %d nodes, want %d", c.path, spec.Cluster.Nodes, c.nodes)
		}
		if err := chaos.Validate(c.nodes); err != nil {
			t.Errorf("%s: chaos plan invalid for %d nodes: %v", c.path, c.nodes, err)
		}
		for i, j := range jobs {
			if ep, ok := j.Script.Params["epochs"].(float64); !ok || ep < 4 {
				t.Errorf("%s job %d: epochs override %v not applied", c.path, i, j.Script.Params["epochs"])
			}
		}
	}
	// Overrides must not leak into the shared default parameter maps.
	base, _ := scripts.ByName("MinibatchLR")
	if ep := base.Params["epochs"].(float64); ep != 3 {
		t.Errorf("scenario override mutated the shared MinibatchLR params: epochs = %v", ep)
	}
}
