package bench

import (
	"io"
	"math"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
)

// TestEndToEndAdaptDeterministic: the adapter's default re-optimization
// charge is simulated time, so two identical adaptive runs report the same
// simulated seconds to the bit.
func TestEndToEndAdaptDeterministic(t *testing.T) {
	r := New(io.Discard)
	s := datagen.New("S", 100, 0.01)
	cfg := RunConfig{Optimize: true, Adapt: true, Classes: 20}
	a, err := r.EndToEnd(scripts.MLogreg(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.EndToEnd(scripts.MLogreg(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Migrations == 0 {
		t.Fatalf("MLogreg %s did not adapt; the test needs a re-optimization", s)
	}
	if math.Float64bits(a.SimSeconds) != math.Float64bits(b.SimSeconds) {
		t.Errorf("simulated seconds differ across identical runs: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
}
