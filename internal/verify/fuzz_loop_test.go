package verify

import (
	"strings"
	"testing"

	"elasticml/internal/dml"
)

// TestFuzzLoopProgramsDeterministicAndParse: the loop-corpus stream is
// reproducible for a fixed (seed, i), parses, and actually contains the
// forced iterative templates (a bounded for or parfor loop over batch
// slices) — the grammar growth this corpus exists to exercise.
func TestFuzzLoopProgramsDeterministicAndParse(t *testing.T) {
	for i := 0; i < 25; i++ {
		a, b := FuzzLoopProgram(7, i), FuzzLoopProgram(7, i)
		if a.Source != b.Source {
			t.Fatalf("loop program %d differs across generations for the same seed", i)
		}
		if _, err := dml.Parse(a.Source); err != nil {
			t.Errorf("loop program %d does not parse: %v\n%s", i, err, a.Source)
		}
		if !strings.Contains(a.Source, "for (") {
			t.Errorf("loop program %d has no for/parfor loop:\n%s", i, a.Source)
		}
	}
	if FuzzLoopProgram(7, 0).Source == FuzzLoopProgram(8, 0).Source {
		t.Error("different seeds produced identical loop programs")
	}
}

// TestFuzzLoopProgramsClean is the loop-corpus differential gate: programs
// with fuzzer-generated epoch/batch loops (dynamic index bounds computed
// from loop variables, remainder batches, nested epoch x batch loops,
// parfor over disjoint batch slices) run under all six resource
// configurations plus the naive reference interpreter with zero fatal
// findings — output mismatches or memory-estimate violations both fail.
func TestFuzzLoopProgramsClean(t *testing.T) {
	for i := 0; i < 3; i++ {
		p := FuzzLoopProgram(1, i)
		r := RunProgram(p, Options{})
		if f := r.Findings; len(f) > 0 {
			t.Errorf("%s: %d fatal findings, first: %s\n%s", p.Name, len(f), f[0], p.Source)
		}
	}
}
