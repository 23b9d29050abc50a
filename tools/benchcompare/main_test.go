package main

import "testing"

// TestJudge pins the verdicts: a median beyond the bound is worse, the
// gain rule reads better, and a reference that spreads wider than the
// bound leaves a change unresolved unless every new run beats every
// reference run.
func TestJudge(t *testing.T) {
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name     string
		d        metricDef
		ref, cur []float64
		want     string
	}{
		{"steady, unchanged", higher, []float64{100, 101, 99, 100}, []float64{100, 99, 101, 100}, "within bound"},
		{"steady, worse", higher, []float64{100, 101, 99, 100}, []float64{70, 71, 69, 70}, "WORSE by 30% (bound 25%)"},
		{"steady, better", lower, []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, "better"},
		{"wide, overlapping", higher, []float64{60, 140, 80, 120}, []float64{90, 130, 70, 110}, "unresolved"},
		{"wide, separated", higher, []float64{10, 20, 100, 101}, []float64{102, 103, 102, 103}, "within bound"},
		{"wide, lower overlapping", lower, []float64{6, 14, 8, 12}, []float64{9, 13, 7, 11}, "unresolved"},
	} {
		if got, _ := judge(c.d, c.ref, c.cur); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}
