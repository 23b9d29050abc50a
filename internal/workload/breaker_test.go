package workload

import (
	"math"
	"testing"
)

// TestBreakerLifecycle walks the full state machine: closed → open on the
// failure threshold → half-open after the cooldown → closed after enough
// probe successes, with the sliding window dropping stale events.
func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(BreakerPolicy{Enabled: true})

	if g := b.gate(0); g != gateAdmit {
		t.Fatalf("fresh breaker gate = %v, want admit", g)
	}
	b.recordFailure(1)
	b.recordFailure(2)
	if b.state != bkClosed {
		t.Fatalf("two failures should not trip (threshold 3), state %v", b.state)
	}
	b.recordFailure(3)
	if b.state != bkOpen || b.trips != 1 {
		t.Fatalf("three failures in window should trip: state %v trips %d", b.state, b.trips)
	}
	if g := b.gate(4); g != gateDegrade {
		t.Errorf("open breaker (Shed=false) gate = %v, want degrade", g)
	}
	// Cooldown expires at openedAt+20 = 23.
	if g := b.gate(22.9); g != gateDegrade {
		t.Errorf("gate before cooldown = %v, want degrade", g)
	}
	if g := b.gate(23); g != gateAdmit || b.state != bkHalfOpen {
		t.Fatalf("cooldown should half-open: gate %v state %v", g, b.state)
	}
	b.admitted(23)
	if b.state != bkHalfOpen {
		t.Fatalf("one probe of two should stay half-open, state %v", b.state)
	}
	b.admitted(24)
	if b.state != bkClosed {
		t.Fatalf("two probes should close, state %v", b.state)
	}
	if len(b.failures) != 0 || len(b.churn) != 0 {
		t.Error("closing should clear the windows")
	}
}

// TestBreakerHalfOpenFailureReopens: a failure while half-open re-opens
// immediately and counts as a fresh trip.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := newBreaker(BreakerPolicy{Enabled: true})
	for _, at := range []float64{0, 1, 2} {
		b.recordFailure(at)
	}
	if b.state != bkOpen {
		t.Fatal("threshold 3 should trip on the third failure")
	}
	b.gate(22) // half-opens
	if b.state != bkHalfOpen {
		t.Fatalf("state %v, want half-open", b.state)
	}
	b.recordFailure(23)
	if b.state != bkOpen || b.openedAt != 23 || b.trips != 2 {
		t.Errorf("half-open failure should re-open at 23: state %v openedAt %g trips %d",
			b.state, b.openedAt, b.trips)
	}
}

// TestBreakerChurnTrips: re-optimization churn alone opens the breaker,
// and window expiry forgets old churn.
func TestBreakerChurnTrips(t *testing.T) {
	b := newBreaker(BreakerPolicy{Enabled: true, Shed: true})
	for i := 0; i < 9; i++ {
		b.recordChurn(0)
	}
	b.recordChurn(31) // the t=0 events left the window
	if b.state != bkClosed {
		t.Fatalf("stale churn should not count, state %v", b.state)
	}
	for at := 32.0; at <= 40; at++ {
		b.recordChurn(at)
	}
	if b.state != bkOpen {
		t.Fatal("ten churn events in window should trip")
	}
	if g := b.gate(41); g != gateShed {
		t.Errorf("open breaker (Shed=true) gate = %v, want shed", g)
	}
}

// TestBreakerNilSafe: a disabled policy yields a nil breaker whose methods
// all no-op.
func TestBreakerNilSafe(t *testing.T) {
	b := newBreaker(BreakerPolicy{})
	if b != nil {
		t.Fatal("disabled policy should yield a nil breaker")
	}
	b.recordFailure(1)
	b.recordChurn(1)
	b.admitted(1)
	if g := b.gate(1); g != gateAdmit {
		t.Errorf("nil breaker gate = %v, want admit", g)
	}
	if b.tripCount() != 0 {
		t.Error("nil breaker trip count != 0")
	}
}

// TestRecoveryBackoff: exponential growth in simulated time, capped.
func TestRecoveryBackoff(t *testing.T) {
	want := []float64{2, 4, 8, 16, 30, 30} // 2s, x2, cap 30
	for i, w := range want {
		if got := backoffDelay(i + 1); got != w {
			t.Errorf("backoffDelay(%d) = %g, want %g", i+1, got, w)
		}
	}
	if got := backoffDelay(0); got != 2 {
		t.Errorf("backoffDelay(0) = %g, want clamp to first retry", got)
	}
}

// TestSnap: the one boundary snap — block-boundary flooring, monotonicity
// against the previous checkpoint, the naive policy's hard zero, and the
// WastedWork booked for the partial work beyond the boundary.
func TestSnap(t *testing.T) {
	cases := []struct {
		done, prev float64
		blocks     int
		want       float64
	}{
		{0.37, 0, 10, 0.3},     // floor to the block boundary
		{0.37, 0.35, 10, 0.35}, // never regress below the previous checkpoint
		{0.99, 0, 4, 0.75},
		{1.0, 0, 4, 1.0},
		{0.5, 0, 0, 0},            // degenerate block count clamps to 1 block
		{1.5, 0, 10, 1},           // overshoot clamps to 1
		{0.3 - 1e-12, 0, 10, 0.3}, // interpolation rounding just short of a boundary
	}
	for _, c := range cases {
		if got := boundaryFloor(c.done, c.prev, c.blocks); got != c.want {
			t.Errorf("boundaryFloor(%g, %g, %d) = %g, want %g", c.done, c.prev, c.blocks, got, c.want)
		}
	}

	// A job 90% through its window on top of a 0.5 checkpoint is 0.95 done.
	mid := func() (*Service, *job) {
		run := simResult{outcome: &outcome{simSeconds: 200, blocks: 10}}
		return &Service{now: 0.9}, &job{ckpt: 0.5, finish: 1, id: &identity{run: run}}
	}
	s, j := mid()
	ck, wasted := s.snap(j, true)
	if ck != 0.9 || math.Abs(wasted-0.05*200) > 1e-9 {
		t.Errorf("checkpoint snap = %g, wasted %g; want 0.9, 10", ck, wasted)
	}
	if j.result.WastedWork != wasted || s.rep.WastedWork != wasted {
		t.Errorf("wasted work booked as tenant %g / report %g, want %g both",
			j.result.WastedWork, s.rep.WastedWork, wasted)
	}
	if j.ckpt != 0.5 {
		t.Errorf("snap moved the job's checkpoint to %g; the caller installs it", j.ckpt)
	}
	s, j = mid()
	if ck, wasted := s.snap(j, false); ck != 0 || math.Abs(wasted-0.95*200) > 1e-9 {
		t.Errorf("naive snap = %g, wasted %g; want 0, 190", ck, wasted)
	}
	// On a boundary nothing is wasted.
	s, j = mid()
	s.now = 0.8
	if ck, wasted := s.snap(j, true); ck != 0.9 || wasted != 0 {
		t.Errorf("snap on a boundary = %g, wasted %g; want 0.9, 0", ck, wasted)
	}
}
