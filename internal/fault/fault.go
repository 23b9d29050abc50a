// Package fault provides seeded, deterministic fault injection for the
// simulated cluster stack. An injection Plan declares what goes wrong —
// node failures at fixed simulated times, per-attempt task failure and
// straggler probabilities, and transient HDFS read errors — and an Injector samples it with per-category random streams so that
// two runs with the same seed inject the identical fault sequence, and
// enabling one fault class never perturbs the sampling of another.
//
// The injector is consumed by the YARN simulator (node loss), the MR
// task-attempt model (task failures, stragglers), the
// simulated DFS (transient read errors), and the interpreter (delivery of
// node failures at simulated-time boundaries).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// NodeFailure schedules the loss of one worker node at a simulated time.
type NodeFailure struct {
	// Node is the failing node's index.
	Node int `json:"node"`
	// At is the simulated time of the failure in seconds.
	At float64 `json:"at"`
}

// Plan declares the faults to inject into one simulated run. The zero
// value injects nothing.
type Plan struct {
	// Seed drives every probabilistic draw; runs with equal seeds and
	// plans inject identical fault sequences.
	Seed int64
	// NodeFailures lists scheduled node losses.
	NodeFailures []NodeFailure
	// TaskFailureProb is the probability that one MR task *attempt* fails
	// and must be re-executed.
	TaskFailureProb float64
	// StragglerProb is the probability that an MR task straggles.
	StragglerProb float64
	// StragglerFactor is the slowdown of a straggling task (>= 1; a value
	// of 4 means the task runs 4x slower than its siblings).
	StragglerFactor float64
	// HDFSReadErrorProb is the probability that one DFS read attempt
	// fails transiently (retryable).
	HDFSReadErrorProb float64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return len(p.NodeFailures) > 0 || p.TaskFailureProb > 0 || p.StragglerProb > 0 ||
		p.HDFSReadErrorProb > 0
}

// Validate reports plans that cannot be injected sensibly.
func (p Plan) Validate() error {
	for name, prob := range map[string]float64{
		"task failure":    p.TaskFailureProb,
		"straggler":       p.StragglerProb,
		"hdfs read error": p.HDFSReadErrorProb,
	} {
		if prob < 0 || prob > 1 {
			return fmt.Errorf("fault: %s probability %g outside [0,1]", name, prob)
		}
	}
	if p.StragglerProb > 0 && p.StragglerFactor < 1 {
		return fmt.Errorf("fault: straggler factor %g < 1", p.StragglerFactor)
	}
	for _, nf := range p.NodeFailures {
		if nf.Node < 0 {
			return fmt.Errorf("fault: negative node index %d", nf.Node)
		}
		if nf.At < 0 {
			return fmt.Errorf("fault: negative failure time %g", nf.At)
		}
	}
	return nil
}

// Injector samples a Plan deterministically. It is safe for concurrent
// use; under concurrency the per-call results stay race-free but the
// interleaving (and thus which caller sees which draw) is scheduling
// dependent, so deterministic experiments sample from a single goroutine.
type Injector struct {
	mu      sync.Mutex
	plan    Plan
	pending []NodeFailure // sorted by At, not yet delivered
	// Independent streams per fault category keep the sampled sequence of
	// one category invariant under changes to another.
	taskRNG, stragRNG, hdfsRNG *rand.Rand
}

// NewInjector validates the plan and returns a fresh injector for it.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pending := append([]NodeFailure(nil), p.NodeFailures...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].At < pending[j].At })
	return &Injector{
		plan:     p,
		pending:  pending,
		taskRNG:  rand.New(rand.NewSource(p.Seed ^ 0x7461736b)), // "task"
		stragRNG: rand.New(rand.NewSource(p.Seed ^ 0x73747261)), // "stra"
		hdfsRNG:  rand.New(rand.NewSource(p.Seed ^ 0x68646673)), // "hdfs"
	}, nil
}

// MustInjector is NewInjector for statically known-good plans (tests,
// examples); it panics on an invalid plan.
func MustInjector(p Plan) *Injector {
	in, err := NewInjector(p)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the injection plan.
func (in *Injector) Plan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan
}

// TaskFaultsEnabled reports whether task-level faults (failures or
// stragglers) can fire, letting hot paths skip the fault model entirely.
func (in *Injector) TaskFaultsEnabled() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan.TaskFailureProb > 0 || in.plan.StragglerProb > 0
}

// NodeFailuresThrough delivers (once) every scheduled node failure with
// At <= now, in time order.
func (in *Injector) NodeFailuresThrough(now float64) []NodeFailure {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for n < len(in.pending) && in.pending[n].At <= now {
		n++
	}
	if n == 0 {
		return nil
	}
	due := in.pending[:n:n]
	in.pending = in.pending[n:]
	return due
}

// TaskFails samples whether one task attempt fails.
func (in *Injector) TaskFails() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.TaskFailureProb <= 0 {
		return false
	}
	return in.taskRNG.Float64() < in.plan.TaskFailureProb
}

// Straggles samples whether one task straggles, returning the slowdown
// factor when it does.
func (in *Injector) Straggles() (float64, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.StragglerProb <= 0 {
		return 1, false
	}
	if in.stragRNG.Float64() >= in.plan.StragglerProb {
		return 1, false
	}
	return in.plan.StragglerFactor, true
}

// HDFSReadFails samples whether one DFS read attempt fails transiently.
// The signature matches hdfs.FS.SetReadFault.
func (in *Injector) HDFSReadFails() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.HDFSReadErrorProb <= 0 {
		return false
	}
	return in.hdfsRNG.Float64() < in.plan.HDFSReadErrorProb
}
