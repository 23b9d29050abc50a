package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedRuns are the four executions this package's golden and sweep tests
// read. They are made once and side by side — they share no state — so the package's
// test time is the longest of them and not their sum.
type sharedRuns struct {
	quickAll, quickFailures, figures, full             string
	quickAllErr, quickFailuresErr, figuresErr, fullErr error
	// What the full-mode service sweeps wrote and returned.
	artifacts map[string][]byte
	workload  []WorkloadRow
	chaos     []ChaosRow
	elastic   []ElasticRow
	minibatch []ElasticRow
}

var shared = sync.OnceValue(func() *sharedRuns {
	s := &sharedRuns{artifacts: map[string][]byte{}}
	var wg sync.WaitGroup
	for _, run := range []func(){
		// `elastic-bench -quick -exp all`.
		func() { s.quickAll, s.quickAllErr = capture(true, func(r *Runner) error { return r.Run("all") }) },
		// A second quick failure sweep, to hold the first against.
		func() { s.quickFailures, s.quickFailuresErr = capture(true, (*Runner).FailureSweep) },
		// The head of `elastic-bench -exp all`: every paper figure and
		// table and the ablations, in full mode.
		func() { s.figures, s.figuresErr = capture(false, paperFigures) },
		// The tail of `elastic-bench -exp all` that testdata/ pins: the
		// failure sweep and the four service sweeps in full mode.
		func() { s.full, s.fullErr = capture(false, s.fullSweeps) },
	} {
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	wg.Wait()
	return s
})

// paperFigures runs the experiments `-exp all` runs before the failure
// sweep.
func paperFigures(r *Runner) error {
	for _, e := range r.Experiments() {
		if e.ID == "failures" {
			return nil
		}
		if err := e.Run(); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

func (s *sharedRuns) fullSweeps(r *Runner) (err error) {
	if err = r.FailureSweep(); err != nil {
		return err
	}
	if s.workload, err = runSweep(r, workloadSweep); err != nil {
		return err
	}
	if s.chaos, err = runSweep(r, chaosSweep); err != nil {
		return err
	}
	if s.elastic, err = runSweep(r, elasticSweep); err != nil {
		return err
	}
	if s.minibatch, err = runSweep(r, minibatchSweep); err != nil {
		return err
	}
	for _, id := range []string{workloadSweep.id, chaosSweep.id, elasticSweep.id, minibatchSweep.id} {
		name := "BENCH_" + id + ".json"
		if s.artifacts[name], err = os.ReadFile(filepath.Join(r.ArtifactDir, name)); err != nil {
			return err
		}
	}
	return nil
}

// capture runs an experiment with a temporary ArtifactDir and returns what
// it printed, artifact paths relative to that directory.
func capture(quick bool, run func(*Runner) error) (string, error) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	var buf bytes.Buffer
	r := New(&buf)
	r.Quick = quick
	r.ArtifactDir = dir
	err = run(r)
	return strings.ReplaceAll(buf.String(), dir+string(filepath.Separator), ""), err
}

// fullRun returns the shared runs, or fails the test if the full-mode one
// did not complete.
func fullRun(t *testing.T) *sharedRuns {
	t.Helper()
	s := shared()
	if s.fullErr != nil {
		t.Fatalf("full-mode sweeps: %v\noutput so far:\n%s", s.fullErr, s.full)
	}
	return s
}

func TestSmokeAll(t *testing.T) {
	s := shared()
	if s.quickAllErr != nil {
		t.Fatalf("run all: %v\noutput so far:\n%s", s.quickAllErr, s.quickAll)
	}
	t.Log(s.quickAll)
}
