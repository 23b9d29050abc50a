package hdfs

import (
	"errors"
	"testing"

	"elasticml/internal/matrix"
)

func TestReadFaultInjection(t *testing.T) {
	fs := New()
	fs.PutMatrix("/x", matrix.Random(4, 4, 1, 0, 1, 1))

	// Sampler failing once then succeeding: Read errors transiently,
	// ReadWithRetry recovers on the second attempt.
	fails := 1
	fs.SetReadFault(func() bool { fails--; return fails >= 0 })
	if _, err := fs.Read("/x"); !errors.Is(err, ErrTransientRead) {
		t.Fatalf("want transient error, got %v", err)
	}
	fails = 1
	f, retries, err := fs.ReadWithRetry("/x", 3)
	if err != nil || f == nil {
		t.Fatalf("retry should recover: %v", err)
	}
	if retries != 1 {
		t.Errorf("retries = %d, want 1", retries)
	}

	// Permanent transient failure exhausts the budget.
	fs.SetReadFault(func() bool { return true })
	if _, _, err := fs.ReadWithRetry("/x", 3); !errors.Is(err, ErrTransientRead) {
		t.Errorf("exhausted retries: %v", err)
	}

	// Missing files are not transient: no retry, immediate error.
	fs.SetReadFault(nil)
	if _, retries, err := fs.ReadWithRetry("/gone", 5); err == nil ||
		errors.Is(err, ErrTransientRead) || retries != 0 {
		t.Errorf("missing file: err=%v retries=%d", err, retries)
	}
}
