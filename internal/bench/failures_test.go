package bench

import (
	"strings"
	"testing"
)

// failureSection cuts the failure sweep's report out of a longer one: it
// ends where the next experiment's title line begins.
func failureSection(t *testing.T, out string) string {
	t.Helper()
	start := strings.Index(out, "Failure sweep:")
	end := strings.Index(out, workloadSweep.title)
	if start < 0 || end < start {
		t.Fatalf("no failure sweep section in:\n%s", out)
	}
	return out[start:end]
}

// TestFailureSweepDeterministic is the seed-determinism regression test:
// every stochastic component behind the sweep (fault sampling, optimizer,
// adaptation charges) is seeded or fixed, so two runs must produce
// byte-identical reports. The quick sweep is run twice — once on its own,
// once inside `-quick -exp all`; the full sweep is run once here and held
// against its earlier run in testdata/sweeps.golden by TestSweepsGolden.
func TestFailureSweepDeterministic(t *testing.T) {
	s := fullRun(t)
	if s.quickAllErr != nil || s.quickFailuresErr != nil {
		t.Fatalf("quick sweeps: %v, %v", s.quickAllErr, s.quickFailuresErr)
	}
	quick, full := failureSection(t, s.quickAll), failureSection(t, s.full)
	if quick != s.quickFailures {
		t.Errorf("same-seed sweeps diverged:\n--- first ---\n%s\n--- second ---\n%s", quick, s.quickFailures)
	}

	for name, out := range map[string]string{"quick": quick, "full": full} {
		// The robustness story must be present in the report: the no-retry
		// baseline aborts under injected task failures while the adaptive
		// runtime recovers (non-zero retries) and re-optimizes after node loss.
		if !strings.Contains(out, "ABORT") {
			t.Errorf("%s: no-retry baseline never aborted", name)
		}
		if !strings.Contains(out, "Node-failure recovery") {
			t.Errorf("%s: node-failure section missing", name)
		}
		sawRetries := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) == 6 && f[1] == "ABORT" && f[3] != "0" {
				sawRetries = true
			}
		}
		if !sawRetries {
			t.Errorf("%s: no row where the baseline aborted but Opt+ReOpt retried through", name)
		}
	}
	// At a 10% task-failure rate MLogreg L loses one task on all four default
	// attempts: the cell reads ABORT and the sweep goes on.
	if !strings.Contains(full, "0.10          ABORT       ABORT\n") {
		t.Errorf("full sweep has no row where Opt+ReOpt itself aborts:\n%s", full)
	}
}
