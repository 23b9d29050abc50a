package workload

import (
	"bytes"
	"fmt"
	"testing"

	"elasticml/internal/obs"
	"elasticml/internal/opt"
)

// runDemo executes the 16-tenant demo workload (with a node failure) and
// returns the marshalled report plus the Chrome trace bytes — the two
// artifacts the determinism gate pins. mutate, when non-nil, adjusts the
// service before it runs (a single-lock cache, no re-costing memo).
func runDemo(t *testing.T, mutate func(*Service)) (reportJSON, trace []byte) {
	t.Helper()
	tr := obs.New(true)
	o := demoOptions()
	o.Trace = tr
	s, err := New(demoCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
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
	r1, t1 := runDemo(t, nil)
	r2, t2 := runDemo(t, nil)
	if !bytes.Equal(r1, r2) {
		t.Errorf("report JSON differs between identical runs:\n%s", diffLine(r1, r2))
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace differs between identical runs:\n%s", diffLine(t1, t2))
	}
}

// TestCacheShardingInvariance: the lock-striped plan cache is a concurrency
// optimization, not a semantic change — with a working set that fits one
// shard's capacity the sharded and single-lock caches must produce
// byte-identical reports (including aggregated cache stats) and traces.
func TestCacheShardingInvariance(t *testing.T) {
	rs, ts := runDemo(t, nil)
	r1, t1 := runDemo(t, func(s *Service) { s.cache = opt.NewCache(s.opts.CacheEntries) })
	if !bytes.Equal(rs, r1) {
		t.Errorf("report JSON differs between sharded and single-lock cache:\n%s", diffLine(rs, r1))
	}
	if !bytes.Equal(ts, t1) {
		t.Errorf("trace differs between sharded and single-lock cache:\n%s", diffLine(ts, t1))
	}
}

// TestReoptMemoInvariance: the re-costing memo only replaces cost
// evaluations with their recorded values, so enabling it must not move a
// single byte of the report or trace relative to fresh searches.
func TestReoptMemoInvariance(t *testing.T) {
	rm, tm := runDemo(t, nil)
	rf, tf := runDemo(t, func(s *Service) { s.memos = nil })
	if !bytes.Equal(rm, rf) {
		t.Errorf("report JSON differs with the re-costing memo enabled:\n%s", diffLine(rm, rf))
	}
	if !bytes.Equal(tm, tf) {
		t.Errorf("trace differs with the re-costing memo enabled:\n%s", diffLine(tm, tf))
	}
}

// TestReoptMemoInvarianceUnderChaos: the memo's cross-cluster validity
// rules get their hardest workout when node failures and restores keep
// changing the cluster mid-run (the kitchen-sink chaos workload); results
// must still match fresh searches.
func TestReoptMemoInvarianceUnderChaos(t *testing.T) {
	r1, _ := runChaosDemo(t, nil)
	r2, _ := runChaosDemo(t, func(s *Service) { s.memos = nil })
	if !bytes.Equal(r1, r2) {
		t.Errorf("memo changed a chaos run:\n%s", diffLine(r1, r2))
	}
}
