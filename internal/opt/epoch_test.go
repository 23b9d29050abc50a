package opt

import (
	"testing"

	"elasticml/internal/scripts"
)

// TestDetectEpochs: the mini-batch family's epoch/batch structure is
// recovered from the compiled hop program via KnownIters, and the batch
// one-shot and while-loop scripts report no epoch plan.
func TestDetectEpochs(t *testing.T) {
	for _, spec := range scripts.Minibatch() {
		hp := compileTestProgram(t, spec)
		plan, ok := DetectEpochs(hp)
		if !ok {
			t.Fatalf("%s: no epoch plan detected", spec.Name)
		}
		wantE := int(spec.Params["epochs"].(float64))
		wantB := int(spec.Params["batches"].(float64))
		if plan.Epochs != wantE || plan.Batches != wantB {
			t.Errorf("%s: plan %+v, want epochs=%d batches=%d", spec.Name, plan, wantE, wantB)
		}
		if plan.Boundaries() != wantE*wantB {
			t.Errorf("%s: boundaries %d, want %d", spec.Name, plan.Boundaries(), wantE*wantB)
		}
	}
	for _, spec := range []scripts.Spec{scripts.LinregDS(), scripts.LinregCG()} {
		hp := compileTestProgram(t, spec)
		if plan, ok := DetectEpochs(hp); ok {
			t.Errorf("%s: unexpected epoch plan %+v", spec.Name, plan)
		}
	}
	if _, ok := DetectEpochs(nil); ok {
		t.Error("nil program produced an epoch plan")
	}
}
