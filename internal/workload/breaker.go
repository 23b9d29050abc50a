package workload

// Circuit-breaker admission guard: when the recent failure rate or
// re-optimization churn over a sliding simulated-time window crosses a
// threshold, the breaker opens and new admissions are shed or downgraded to
// the degraded-fallback plan. After a cooldown it half-opens
// deterministically (time-based, no randomness): admissions flow again and
// count as probes; enough successes close the breaker, while any failure
// during half-open re-opens it. All times are simulated seconds, so breaker
// decisions are byte-identical across runs.

// BreakerPolicy configures the admission circuit breaker. The zero value
// (Enabled == false) disables it.
type BreakerPolicy struct {
	// Enabled turns the breaker on.
	Enabled bool `json:"enabled"`
	// Shed rejects new first-time admissions outright while open; the
	// default (false) downgrades them to the degraded-fallback plan
	// instead. Failure victims retrying under their budget are never shed.
	Shed bool `json:"shed"`
}

// The breaker's thresholds, in simulated seconds and event counts.
const (
	// breakerWindow is the sliding window over which failure and churn
	// events are counted.
	breakerWindow float64 = 30
	// failureThreshold node/container failures, or churnThreshold mid-run
	// re-optimization changes, inside the window open the breaker.
	failureThreshold = 3
	churnThreshold   = 10
	// breakerCooldown is how long the breaker stays open before
	// half-opening.
	breakerCooldown float64 = 20
	// halfOpenProbes successful admissions in half-open state close it.
	halfOpenProbes = 2
)

// breakerState is the classic three-state machine.
type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "half-open"
	}
	return "closed"
}

// admissionGate is the breaker's verdict for one admission attempt.
type admissionGate int

const (
	gateAdmit admissionGate = iota
	gateDegrade
	gateShed
)

// breaker is the service-side state machine. A nil breaker admits
// everything (all methods are nil-safe).
type breaker struct {
	shed     bool
	state    breakerState
	failures []float64 // simulated times of recent failure events
	churn    []float64 // simulated times of recent reopt changes
	openedAt float64
	probes   int
	trips    int
}

func newBreaker(pol BreakerPolicy) *breaker {
	if !pol.Enabled {
		return nil
	}
	return &breaker{shed: pol.Shed}
}

// prune drops window-expired events.
func (b *breaker) prune(now float64) {
	cut := now - breakerWindow
	for len(b.failures) > 0 && b.failures[0] < cut {
		b.failures = b.failures[1:]
	}
	for len(b.churn) > 0 && b.churn[0] < cut {
		b.churn = b.churn[1:]
	}
}

// advance applies the time-based open → half-open transition.
func (b *breaker) advance(now float64) {
	if b.state == bkOpen && now >= b.openedAt+breakerCooldown {
		b.state = bkHalfOpen
		b.probes = 0
	}
}

// trip opens the breaker if a window threshold is crossed, or at once if
// probeFailed: a failure during half-open re-opens it.
func (b *breaker) trip(now float64, probeFailed bool) {
	if b.state != bkOpen && (probeFailed || len(b.failures) >= failureThreshold || len(b.churn) >= churnThreshold) {
		b.state = bkOpen
		b.openedAt = now
		b.trips++
	}
}

// recordFailure registers one node/container failure at the simulated time.
// A failure during half-open re-opens immediately — the probe failed.
func (b *breaker) recordFailure(now float64) {
	if b == nil {
		return
	}
	b.prune(now)
	b.failures = append(b.failures, now)
	b.trip(now, b.state == bkHalfOpen)
}

// recordChurn registers one re-optimization configuration change.
func (b *breaker) recordChurn(now float64) {
	if b == nil {
		return
	}
	b.prune(now)
	b.churn = append(b.churn, now)
	b.trip(now, false)
}

// gate returns the verdict for an admission attempt at the simulated time.
func (b *breaker) gate(now float64) admissionGate {
	if b == nil {
		return gateAdmit
	}
	b.prune(now)
	b.advance(now)
	if b.state != bkOpen {
		return gateAdmit
	}
	if b.shed {
		return gateShed
	}
	return gateDegrade
}

// admitted registers a successful admission; in half-open state it counts
// as a probe, and enough probes close the breaker and clear the windows.
func (b *breaker) admitted(now float64) {
	if b == nil || b.state != bkHalfOpen {
		return
	}
	b.probes++
	if b.probes >= halfOpenProbes {
		b.state = bkClosed
		b.failures = b.failures[:0]
		b.churn = b.churn[:0]
	}
}

// tripCount returns how many times the breaker opened.
func (b *breaker) tripCount() int {
	if b == nil {
		return 0
	}
	return b.trips
}
