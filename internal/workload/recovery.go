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
// budget of 3 retries and 2s/x2/30s exponential backoff in simulated time.
type RecoveryPolicy struct {
	// Kind selects checkpoint/restart (default) or naive from-scratch
	// restart.
	Kind RecoveryKind `json:"kind"`
	// MaxRetries bounds consecutive failed restarts per job; once exhausted
	// the job fails permanently with ErrRetryBudgetExhausted (default 3).
	// A restart that advanced the checkpoint resets the count — the job is
	// making progress, so the budget guards against futile churn, not
	// against long jobs in long storms. Naive restarts never advance, so
	// their budget depletes monotonically. Set StrictBudget to count every
	// restart regardless of progress.
	MaxRetries int `json:"max_retries"`
	// StrictBudget counts every container loss against MaxRetries even
	// when the job advanced its checkpoint since the previous failure.
	StrictBudget bool `json:"strict_budget"`
	// Backoff is the simulated seconds a victim waits before its first
	// re-admission attempt (default 2).
	Backoff float64 `json:"backoff"`
	// BackoffMultiplier grows the wait per retry (default 2).
	BackoffMultiplier float64 `json:"backoff_multiplier"`
	// MaxBackoff caps a single wait (default 30).
	MaxBackoff float64 `json:"max_backoff"`
	// CheckpointCharge is the simulated seconds charged to restore state
	// from the last checkpoint on re-admission (default 1). Naive restarts
	// charge Options.RequeueCharge instead.
	CheckpointCharge float64 `json:"checkpoint_charge"`
}

// DefaultRecoveryPolicy returns the service's standard recovery behaviour.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		Kind:              RecoveryCheckpoint,
		MaxRetries:        3,
		Backoff:           2,
		BackoffMultiplier: 2,
		MaxBackoff:        30,
		CheckpointCharge:  1,
	}
}

func (p RecoveryPolicy) normalized() RecoveryPolicy {
	d := DefaultRecoveryPolicy()
	if p.MaxRetries <= 0 {
		p.MaxRetries = d.MaxRetries
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	if p.BackoffMultiplier < 1 {
		p.BackoffMultiplier = d.BackoffMultiplier
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.CheckpointCharge <= 0 {
		p.CheckpointCharge = d.CheckpointCharge
	}
	return p
}

// backoffDelay returns the simulated wait before re-admission attempt k
// (k = 1 for the first retry): Backoff * Multiplier^(k-1), capped.
func (p RecoveryPolicy) backoffDelay(k int) float64 {
	if k < 1 {
		k = 1
	}
	d := p.Backoff * math.Pow(p.BackoffMultiplier, float64(k-1))
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}
