package fault

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestValidate(t *testing.T) {
	bad := []Plan{
		{TaskFailureProb: -0.1},
		{TaskFailureProb: 1.1},
		{StragglerProb: 0.5, StragglerFactor: 0.5},
		{NodeFailures: []NodeFailure{{Node: -1, At: 10}}},
		{NodeFailures: []NodeFailure{{Node: 0, At: -1}}},
		{HDFSReadErrorProb: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: expected validation error", i)
		}
		if _, err := NewInjector(p); err == nil {
			t.Errorf("plan %d: NewInjector accepted invalid plan", i)
		}
	}
	good := Plan{Seed: 1, TaskFailureProb: 0.1, StragglerProb: 0.05, StragglerFactor: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Error("zero plan must be disabled")
	}
	if !(Plan{TaskFailureProb: 0.01}).Enabled() {
		t.Error("task failures should enable the plan")
	}
	if !(Plan{NodeFailures: []NodeFailure{{Node: 0, At: 5}}}).Enabled() {
		t.Error("node failures should enable the plan")
	}
}

// TestSameSeedSameSequence: two injectors with identical plans sample the
// byte-identical fault sequence (the seed-determinism contract).
func TestSameSeedSameSequence(t *testing.T) {
	plan := Plan{
		Seed:              42,
		TaskFailureProb:   0.2,
		StragglerProb:     0.1,
		StragglerFactor:   4,
		HDFSReadErrorProb: 0.05,
	}
	a, b := MustInjector(plan), MustInjector(plan)
	for i := 0; i < 5000; i++ {
		if a.TaskFails() != b.TaskFails() {
			t.Fatalf("task draw %d diverged", i)
		}
		fa, oa := a.Straggles()
		fb, ob := b.Straggles()
		if fa != fb || oa != ob {
			t.Fatalf("straggler draw %d diverged", i)
		}
		if a.HDFSReadFails() != b.HDFSReadFails() {
			t.Fatalf("hdfs draw %d diverged", i)
		}
	}
}

// TestIndependentStreams: enabling an additional fault category must not
// change the sampled sequence of an existing one.
func TestIndependentStreams(t *testing.T) {
	base := MustInjector(Plan{Seed: 7, TaskFailureProb: 0.3})
	mixed := MustInjector(Plan{Seed: 7, TaskFailureProb: 0.3, StragglerProb: 0.5, StragglerFactor: 2, HDFSReadErrorProb: 0.5})
	for i := 0; i < 2000; i++ {
		mixed.HDFSReadFails() // interleave other draws
		mixed.Straggles()
		if base.TaskFails() != mixed.TaskFails() {
			t.Fatalf("task stream perturbed at draw %d", i)
		}
	}
}

func TestNodeFailureDelivery(t *testing.T) {
	in := MustInjector(Plan{NodeFailures: []NodeFailure{
		{Node: 2, At: 50}, {Node: 0, At: 10}, {Node: 1, At: 10},
	}})
	if got := in.NodeFailuresThrough(5); len(got) != 0 {
		t.Errorf("premature delivery: %v", got)
	}
	got := in.NodeFailuresThrough(10)
	if len(got) != 2 || got[0].Node != 0 || got[1].Node != 1 {
		t.Errorf("t=10 delivery = %v", got)
	}
	// Delivered exactly once.
	if again := in.NodeFailuresThrough(10); len(again) != 0 {
		t.Errorf("redelivered: %v", again)
	}
	if got := in.NodeFailuresThrough(1e9); len(got) != 1 || got[0].Node != 2 {
		t.Errorf("final delivery = %v", got)
	}
}

func TestProbabilitiesRoughlyHonored(t *testing.T) {
	in := MustInjector(Plan{Seed: 9, TaskFailureProb: 0.25})
	fails := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.TaskFails() {
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("injected failure rate %.3f far from 0.25", rate)
	}
}

// TestConcurrentSampling hammers one injector from many goroutines; run
// with -race. Each node failure is delivered exactly once even though the
// interleaving varies.
func TestConcurrentSampling(t *testing.T) {
	in := MustInjector(Plan{
		Seed: 3, TaskFailureProb: 0.5, StragglerProb: 0.5, StragglerFactor: 2,
		HDFSReadErrorProb: 0.5,
		NodeFailures:      []NodeFailure{{Node: 0, At: 1}, {Node: 1, At: 2}},
	})
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.TaskFails()
				in.Straggles()
				in.HDFSReadFails()
				delivered.Add(int64(len(in.NodeFailuresThrough(float64(i)))))
			}
		}()
	}
	wg.Wait()
	if n := delivered.Load(); n != 2 {
		t.Errorf("node failures delivered %d times", n)
	}
}
