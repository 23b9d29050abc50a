package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"elasticml/internal/fault"
	"elasticml/internal/obs"
	"elasticml/internal/workload"
)

// Submit prepares a job (identify, key, and on a miss compile, a cold
// search and, for a scenario job, a simulated run of its answer) on the
// caller's goroutine under the view the service last published, and the
// sequencer commits it in order. These tests pin that a
// view that moved in between is noticed, and that live runs replay
// byte-identically however the preparations interleave with chaos.

// TestSequencerPreparedStaleView: a job is prepared under the full cluster,
// then a node flaps down before the job is admitted. Its prepared answer
// is for the old view's key and its prepared run for the old view, so the
// sequencer must use neither: it plans again under the live view (without
// compiling again) and simulates the plan itself, and the report equals
// the replay of the recorded ops. Without the flap the answer and the run
// are used: the sequencer simulates nothing. The sequencer's steps are
// driven by hand here, so the interleaving is the one named, not a race.
func TestSequencerPreparedStaleView(t *testing.T) {
	for _, c := range []struct {
		name         string
		flapFirst    bool
		used, stale  int64
		runs, reuses int64
	}{
		{"view-moved", true, 0, 1, 1, 0},
		{"view-kept", false, 1, 0, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := workload.DefaultOptions()
			o.Chaos.Flaps = []fault.Flap{{Node: 1, At: 1, RestoreAfter: 500}}
			o.Trace = obs.New(false)
			svc, err := workload.New(testCluster(), o)
			if err != nil {
				t.Fatal(err)
			}
			svc.ScheduleChaos()
			wire := JobSpecWire{Tenant: "t", Script: "GLM", Size: "S", Cols: 300, Sparsity: 1}
			spec, err := wire.toJobSpec(0)
			if err != nil {
				t.Fatal(err)
			}
			spec = svc.Prepare(spec)
			steps := 0
			if c.flapFirst {
				for m := o.Trace.Metrics(); m.Counter("workload.node_failures") == 0; steps++ {
					if !svc.Step() {
						t.Fatal("the flap never fired")
					}
				}
			}
			spec.Arrival = svc.Frontier()
			idx, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			for svc.Step() {
			}
			live := svc.Finalize()
			if !live.Tenants[0].Served {
				t.Fatalf("job not served: %+v", live.Tenants[0])
			}
			m := o.Trace.Metrics()
			if used, stale := m.Counter("workload.prep_used"), m.Counter("workload.prep_stale"); used != c.used || stale != c.stale {
				t.Errorf("prep_used %d, prep_stale %d; want %d and %d", used, stale, c.used, c.stale)
			}
			if n := m.Counter("workload.compiles"); n != 1 {
				t.Errorf("%d compiles, want the prepared one only", n)
			}
			if runs, reuses := m.Counter("workload.sim_runs"), m.Counter("workload.sim_reuses"); runs != c.runs || reuses != c.reuses {
				t.Errorf("sim_runs %d, sim_reuses %d; want %d and %d", runs, reuses, c.runs, c.reuses)
			}

			ro := o
			ro.Trace = nil
			replayed, err := Replay(&RecordLog{Cluster: testCluster(), Options: ro, Gap: DefaultGap, Ops: []Op{
				{Kind: "submit", Steps: steps, Job: idx, Arrival: spec.Arrival, Spec: &wire},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := reportJSON(t, live), reportJSON(t, replayed); !bytes.Equal(a, b) {
				t.Fatalf("live and replayed reports differ:\n--- live ---\n%s\n--- replay ---\n%s", a, b)
			}
		})
	}
}

// TestSequencerColdSessionsUnderChaos: four sessions submit never-seen
// cold jobs at once while node flaps move the live view under them, so
// preparations race each other, the event loop, and the view the loop
// publishes. Run under the race detector (make race). Whatever
// interleaving the run takes, the recorded ops replay to the same report.
func TestSequencerColdSessionsUnderChaos(t *testing.T) {
	o := workload.DefaultOptions()
	for k := 0; k < 60; k++ {
		o.Chaos.Flaps = append(o.Chaos.Flaps, fault.Flap{Node: 1, At: float64(1 + 7*k), RestoreAfter: 3})
	}
	tr := obs.New(false)
	o.Trace = tr
	seq, err := NewSequencer(testCluster(), o, 0)
	if err != nil {
		t.Fatal(err)
	}
	scripts := []string{"LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				spec := JobSpecWire{
					Tenant: fmt.Sprintf("g%d-t%d", g, i), Script: scripts[(g+i)%len(scripts)],
					Size: "XS", Cols: int64(200 + 10*(4*i+g)), Sparsity: 1,
				}
				if _, _, err := seq.Submit(spec, nil); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	live := seq.Drain()
	m := tr.Metrics()
	used, stale := m.Counter("workload.prep_used"), m.Counter("workload.prep_stale")
	t.Logf("prep_used %d, prep_stale %d, node failures %d", used, stale, m.Counter("workload.node_failures"))
	if used+stale == 0 {
		t.Fatal("no cold job committed a prepared answer")
	}
	replayed, err := Replay(seq.Log())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a, b := reportJSON(t, live), reportJSON(t, replayed); !bytes.Equal(a, b) {
		t.Fatal("live and replayed reports differ")
	}
}
