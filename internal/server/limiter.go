// The admission limiter is the daemon's first line of defense, sitting in
// front of the workload circuit breaker: a token-bucket byte-rate guard
// sheds sessions that pump frames faster than the configured budget, and
// an inflight-jobs cap bounds how many submissions may be live in the
// simulator at once. Both shed with the typed ErrOverloaded condition —
// surfaced on the wire as an Error frame, never as a dropped connection —
// so a client can distinguish back-pressure from failure and retry later.
// Jobs that pass the limiter can still be shed by the per-run circuit
// breaker inside the workload service (breaker=shed); the limiter guards
// the daemon, the breaker guards the simulated cluster.
package server

import (
	"sync"
	"time"
)

// LimiterPolicy configures the admission limiter. Zero values disable the
// corresponding guard.
type LimiterPolicy struct {
	// BytesPerSec refills the token bucket; a session stream above this
	// sustained rate is shed. 0 disables byte-rate limiting.
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// Burst is the bucket capacity in bytes. Defaults to one second's
	// refill, and is always raised to at least maxFrame so a single
	// max-size frame fits: a smaller bucket would shed such a frame
	// forever, since no amount of idle refill can exceed the capacity.
	Burst float64 `json:"burst,omitempty"`
	// MaxInflight bounds concurrently live (submitted, not yet terminal)
	// jobs across all sessions. 0 disables the cap.
	MaxInflight int `json:"max_inflight,omitempty"`

	// maxFrame is the largest frame the bucket must be able to admit:
	// NewServer sets the wire frame bound of the server the limiter
	// fronts (ServerConfig.MaxFrame). Defaults to DefaultMaxFrame.
	maxFrame float64
}

// Limiter composes the token bucket and the inflight cap. All methods are
// safe for concurrent use; a nil Limiter admits everything.
type Limiter struct {
	mu     sync.Mutex
	policy LimiterPolicy

	tokens float64
	last   time.Time
	now    func() time.Time

	inflight int
}

// NewLimiter builds a limiter; now (optional) injects a clock for tests.
func NewLimiter(p LimiterPolicy, now func() time.Time) *Limiter {
	if now == nil {
		now = time.Now
	}
	if p.maxFrame <= 0 {
		p.maxFrame = DefaultMaxFrame
	}
	if p.BytesPerSec > 0 {
		if p.Burst <= 0 {
			p.Burst = p.BytesPerSec
		}
		// Clamp explicit bursts too: a bucket smaller than the largest legal
		// frame would make that frame permanently inadmissible — AllowBytes
		// could never accumulate enough tokens no matter how long the
		// session idles.
		if p.Burst < p.maxFrame {
			p.Burst = p.maxFrame
		}
	}
	return &Limiter{policy: p, tokens: p.Burst, last: now(), now: now}
}

// AllowBytes charges n bytes against the token bucket and reports whether
// the frame is admitted. A shed frame is not charged.
func (l *Limiter) AllowBytes(n int) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy.BytesPerSec <= 0 {
		return true
	}
	t := l.now()
	if dt := t.Sub(l.last).Seconds(); dt > 0 {
		l.tokens += dt * l.policy.BytesPerSec
		if l.tokens > l.policy.Burst {
			l.tokens = l.policy.Burst
		}
	}
	l.last = t
	if float64(n) > l.tokens {
		return false
	}
	l.tokens -= float64(n)
	return true
}

// AcquireJob claims one inflight-job slot; the caller must ReleaseJob once
// the job reaches a terminal state.
func (l *Limiter) AcquireJob() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy.MaxInflight > 0 && l.inflight >= l.policy.MaxInflight {
		return false
	}
	l.inflight++
	return true
}

// ReleaseJob returns an inflight-job slot.
func (l *Limiter) ReleaseJob() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.inflight > 0 {
		l.inflight--
	}
	l.mu.Unlock()
}

// Inflight reports the live job count (for metrics).
func (l *Limiter) Inflight() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}
