package workload

import (
	"bytes"
	"fmt"
	"testing"

	"elasticml/internal/obs"
)

// runDemo executes the 16-tenant demo workload (with a node failure) and
// returns the marshalled report plus the Chrome trace bytes — the two
// artifacts the determinism gate pins.
func runDemo(t *testing.T) (reportJSON, trace []byte) {
	t.Helper()
	tr := obs.New(true)
	o := demoOptions()
	o.Trace = tr
	s, err := New(demoCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(demoJobs())
	if err != nil {
		t.Fatal(err)
	}
	var rj bytes.Buffer
	if err := rep.WriteJSON(&rj); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := tr.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	return rj.Bytes(), tb.Bytes()
}

// diffLine locates the first differing line of two byte slices for a
// readable failure message.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestSameSeedByteIdentical: two runs of the same workload produce
// byte-identical reports and traces — the workload determinism gate
// (wired in CI next to the trace-determinism gate).
func TestSameSeedByteIdentical(t *testing.T) {
	r1, t1 := runDemo(t)
	r2, t2 := runDemo(t)
	if !bytes.Equal(r1, r2) {
		t.Errorf("report JSON differs between identical runs:\n%s", diffLine(r1, r2))
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace differs between identical runs:\n%s", diffLine(t1, t2))
	}
}
