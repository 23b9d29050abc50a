package workload

import (
	"errors"
	"fmt"
	"math"
)

// Typed terminal conditions surfaced in TenantResult.Err. Callers test them
// with errors.Is; messages carry per-tenant context.
var (
	// ErrRetryBudgetExhausted marks a tenant whose job kept losing its
	// container until the recovery policy's retry budget ran out — the
	// typed terminal failure replacing the old unbounded front-requeue.
	ErrRetryBudgetExhausted = errors.New("workload: retry budget exhausted")
	// ErrAdmissionShed marks a tenant rejected by the circuit breaker:
	// the service was shedding new admissions when the job reached the
	// head of the queue.
	ErrAdmissionShed = errors.New("workload: admission shed by circuit breaker")
	// ErrCanceled marks a tenant whose job was terminated on client
	// request (the network frontend's CancelJob path).
	ErrCanceled = errors.New("workload: job canceled")
)

// RetryExhaustedError is the typed terminal failure attached to a tenant
// whose retry budget ran out. It unwraps to ErrRetryBudgetExhausted, so
// both errors.Is (against the sentinel) and errors.As (for the per-tenant
// detail) work on TenantResult.Err.
type RetryExhaustedError struct {
	Tenant  string
	Retries int
	Budget  int
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("workload: %s lost its container %d times (budget %d): retry budget exhausted",
		e.Tenant, e.Retries, e.Budget)
}

func (e *RetryExhaustedError) Unwrap() error { return ErrRetryBudgetExhausted }

// RecoveryKind selects how a failure victim's progress is treated.
type RecoveryKind int

const (
	// RecoveryCheckpoint snapshots completed-block progress at block
	// boundaries: a restart resumes from the last checkpoint, and only the
	// partially executed block is re-done. This is the default.
	RecoveryCheckpoint RecoveryKind = iota
	// RecoveryNaive restarts the victim from scratch — all progress since
	// admission is wasted. This is the baseline the chaos bench compares
	// checkpoint/restart against.
	RecoveryNaive
)

func (k RecoveryKind) String() string {
	if k == RecoveryNaive {
		return "naive"
	}
	return "checkpoint"
}

func (k RecoveryKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *RecoveryKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "checkpoint":
		*k = RecoveryCheckpoint
	case "naive":
		*k = RecoveryNaive
	default:
		return fmt.Errorf("workload: unknown recovery kind %q (want checkpoint or naive)", b)
	}
	return nil
}

// RecoveryPolicy governs how the service handles jobs whose AM container
// died with a node. The zero value normalizes to checkpoint/restart with a
// budget of 3 retries. Every retry waits out an exponential backoff in
// simulated time (see backoffDelay).
type RecoveryPolicy struct {
	// Kind selects checkpoint/restart (default) or naive from-scratch
	// restart.
	Kind RecoveryKind `json:"kind"`
	// MaxRetries bounds consecutive failed restarts per job; once exhausted
	// the job fails permanently with ErrRetryBudgetExhausted (default 3).
	// A restart that advanced the checkpoint resets the count — the job is
	// making progress, so the budget guards against futile churn, not
	// against long jobs in long storms. Naive restarts never advance, so
	// their budget depletes monotonically.
	MaxRetries int `json:"max_retries"`
}

func (p RecoveryPolicy) normalized() RecoveryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	return p
}

// The retry backoff: a victim waits backoffBase simulated seconds before
// its first re-admission attempt, backoffMultiplier times longer before
// each further one, and never more than maxBackoff.
const (
	backoffBase       float64 = 2
	backoffMultiplier float64 = 2
	maxBackoff        float64 = 30
)

// backoffDelay returns the simulated wait before re-admission attempt k
// (k = 1 for the first retry): backoffBase * backoffMultiplier^(k-1),
// capped at maxBackoff.
func backoffDelay(k int) float64 {
	if k < 1 {
		k = 1
	}
	return min(backoffBase*math.Pow(backoffMultiplier, float64(k-1)), maxBackoff)
}
