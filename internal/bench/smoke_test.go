package bench

import (
	"bytes"
	"testing"
)

func TestSmokeAll(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.Quick = true
	r.ArtifactDir = t.TempDir()
	if err := r.Run("all"); err != nil {
		t.Fatalf("run all: %v\noutput so far:\n%s", err, buf.String())
	}
	t.Log(buf.String())
}
