package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestNilSafety: the disabled sink (nil tracer/metrics/span) must accept
// every call without panicking.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.SpansEnabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Begin(LayerCompile, "x", A("k", 1))
	sp.End()
	tr.Complete(LayerRuntime, "x", 0, 1)
	tr.CompleteNow(LayerAdapt, "x", 1)
	tr.Instant(LayerCluster, "x")
	tr.SetClock(func() float64 { return 1 })
	if tr.Now() != 0 {
		t.Error("nil tracer recorded state")
	}
	if err := tr.WriteSummary(&bytes.Buffer{}); err != nil {
		t.Errorf("nil summary: %v", err)
	}

	var m *Metrics
	m.Add("c", 1)
	m.SetGauge("g", 1)
	m.Observe("h", 1)
	if m.Counter("c") != 0 || m.Gauge("g") != 0 || m.Hist("h").Count != 0 {
		t.Error("nil metrics recorded state")
	}
	if err := m.WriteText(&bytes.Buffer{}); err != nil {
		t.Errorf("nil metrics write: %v", err)
	}
	if s := m.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Hists != nil {
		t.Error("nil metrics snapshot non-empty")
	}
	if tr.Metrics() != nil {
		t.Error("nil tracer returned a registry")
	}
}

// TestSpansDisabled: New(false) keeps the metrics registry live but records
// no events.
func TestSpansDisabled(t *testing.T) {
	tr := New(false)
	if !tr.Enabled() || tr.SpansEnabled() {
		t.Fatal("wrong enablement for metrics-only tracer")
	}
	tr.Begin(LayerCompile, "x").End()
	tr.Instant(LayerCluster, "x")
	if len(tr.events) != 0 {
		t.Errorf("metrics-only tracer recorded %d events", len(tr.events))
	}
	tr.Metrics().Add("c", 2)
	if tr.Metrics().Counter("c") != 2 {
		t.Error("metrics registry inactive")
	}
}

// TestLogicalClock: without an installed clock, timestamps advance one
// microsecond per event.
func TestLogicalClock(t *testing.T) {
	tr := New(true)
	t1 := tr.Now()
	t2 := tr.Now()
	if t2-t1 < logicalTick/2 || t2 <= t1 {
		t.Errorf("logical clock not ticking: %v -> %v", t1, t2)
	}
}

// TestClockAnchoring: installing a simulated clock mid-trace must keep the
// timeline monotonic — simulated time restarts at zero but trace timestamps
// continue from the logical-clock high-water mark.
func TestClockAnchoring(t *testing.T) {
	tr := New(true)
	tr.Begin(LayerCompile, "compile").End()
	before := tr.Now()

	sim := 0.0
	tr.SetClock(func() float64 { return sim })
	at0 := tr.Now()
	if at0 < before {
		t.Errorf("timeline jumped backwards: %v after %v", at0, before)
	}
	sim = 5.0
	at5 := tr.Now()
	if at5-at0 < 4.999 || at5-at0 > 5.001 {
		t.Errorf("simulated advance not reflected: %v -> %v", at0, at5)
	}
	tr.SetClock(nil)
	after := tr.Now()
	if after < at5 {
		t.Errorf("timeline regressed after clock removal: %v < %v", after, at5)
	}
}

// TestCompleteMovesHighWater: a Complete span ending past the current clock
// must advance the high-water mark so later events sort after it.
func TestCompleteMovesHighWater(t *testing.T) {
	tr := New(true)
	tr.Complete(LayerRuntime, "op", 10, 5)
	if now := tr.Now(); now < 15 {
		t.Errorf("high-water mark not advanced: %v", now)
	}
}

// TestChromeExport: the export must be valid JSON carrying the recorded
// spans with layer thread names, and byte-identical across writes.
func TestChromeExport(t *testing.T) {
	tr := New(true)
	sp := tr.Begin(LayerCompile, "hop.compile", A("blocks", 3))
	sp.End()
	tr.Complete(LayerRuntime, "CP ba(+*)", 1, 2.5, A("cost", 0.5))
	tr.Instant(LayerCluster, "node.fail", A("node", 0))

	var a, b bytes.Buffer
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("exports differ across writes")
	}

	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 1 process + 6 thread metadata + 2 span events + 1 complete + 1 instant.
	if len(doc.TraceEvents) != 11 {
		t.Errorf("event count = %d, want 11", len(doc.TraceEvents))
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "B") || !strings.Contains(joined, "E") ||
		!strings.Contains(joined, "X") || !strings.Contains(joined, "i") {
		t.Errorf("missing phases in %q", joined)
	}
	// The complete event must carry microsecond ts/dur and its args.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			if ev["ts"].(float64) != 1e6 || ev["dur"].(float64) != 2.5e6 {
				t.Errorf("X ts/dur = %v/%v, want 1e6/2.5e6", ev["ts"], ev["dur"])
			}
			args := ev["args"].(map[string]interface{})
			if args["cost"].(float64) != 0.5 {
				t.Errorf("X args = %v", args)
			}
		}
	}
}

// TestMetricsTextDeterministic: WriteText output is sorted and stable
// regardless of insertion order.
func TestMetricsTextDeterministic(t *testing.T) {
	render := func(order []string) string {
		m := NewMetrics()
		for _, name := range order {
			m.Add(name, 1)
		}
		m.SetGauge("g.z", 2)
		m.SetGauge("g.a", 1)
		m.Observe("h.x", 0.5)
		var buf bytes.Buffer
		if err := m.WriteText(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.String()
	}
	a := render([]string{"c.b", "c.a", "c.c"})
	b := render([]string{"c.c", "c.a", "c.b"})
	if a != b {
		t.Errorf("metric text depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 6 {
		t.Errorf("line count = %d, want 6:\n%s", len(lines), a)
	}
	if !strings.HasPrefix(lines[0], "counter  c.a") || !strings.HasPrefix(lines[3], "gauge    g.a") {
		t.Errorf("unexpected ordering:\n%s", a)
	}
}

// TestHistogram: bucket boundaries, min/max/mean, and overflow.
func TestHistogram(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{0.0005, 0.05, 0.5, 5, 5000} {
		m.Observe("h", v)
	}
	h := m.Hist("h")
	if h.Count != 5 {
		t.Errorf("count = %d", h.Count)
	}
	if h.Min != 0.0005 || h.Max != 5000 {
		t.Errorf("min/max = %v/%v", h.Min, h.Max)
	}
	if got, want := h.Mean(), h.Sum/5; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	wantBuckets := [8]int64{1, 0, 1, 1, 1, 0, 0, 1} // <=1ms, <=100ms, <=1s, <=10s, overflow
	if h.Buckets != wantBuckets {
		t.Errorf("buckets = %v, want %v", h.Buckets, wantBuckets)
	}
}

// TestSpanTotals: LIFO Begin/End matching plus Complete aggregation.
func TestSpanTotals(t *testing.T) {
	tr := New(true)
	sim := 0.0
	tr.SetClock(func() float64 { return sim })
	outer := tr.Begin(LayerRuntime, "op")
	sim = 1
	inner := tr.Begin(LayerRuntime, "op") // nested same-name span
	sim = 2
	inner.End()
	sim = 4
	outer.End()
	tr.Complete(LayerRuntime, "op", 10, 3)
	tr.Complete(LayerCluster, "other", 0, 100) // different layer: excluded

	totals := tr.SpanTotals(LayerRuntime)
	agg := totals["op"]
	if agg.Count != 3 {
		t.Errorf("count = %d, want 3", agg.Count)
	}
	// inner 1s + outer 4s + complete 3s.
	if agg.Seconds < 7.999 || agg.Seconds > 8.001 {
		t.Errorf("seconds = %v, want 8", agg.Seconds)
	}
	if len(totals) != 1 {
		t.Errorf("layer filter leaked: %v", totals)
	}
}

// TestCostTable: the join must cover predicted-only and simulated-only
// operators and sort by simulated time descending.
func TestCostTable(t *testing.T) {
	predicted := map[string]float64{"CP a": 1.0, "MR b": 10.0, "CP gone": 2.0}
	simulated := map[string]SpanTotal{
		"CP a":   {Count: 3, Seconds: 1.5},
		"MR b":   {Count: 1, Seconds: 12.0},
		"CP new": {Count: 2, Seconds: 0.5},
	}
	rows := CostTable(predicted, simulated)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].Op != "MR b" || rows[1].Op != "CP a" {
		t.Errorf("sort order wrong: %v %v", rows[0].Op, rows[1].Op)
	}
	for _, r := range rows {
		switch r.Op {
		case "CP gone":
			if r.Simulated != 0 || r.Predicted != 2.0 {
				t.Errorf("predicted-only row wrong: %+v", r)
			}
		case "CP new":
			if r.Predicted != 0 || r.Simulated != 0.5 {
				t.Errorf("simulated-only row wrong: %+v", r)
			}
		case "MR b":
			if e := r.Error(); e != 2.0 {
				t.Errorf("error = %v, want 2", e)
			}
		}
	}
}

// failAfter fails on the nth write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.n--
	if f.n < 0 {
		return 0, f.err
	}
	return len(p), nil
}

// TestErrWriter: the first underlying error is remembered, later writes are
// dropped, and the sink keeps reporting success to fmt.
func TestErrWriter(t *testing.T) {
	boom := errors.New("disk full")
	ew := &ErrWriter{W: &failAfter{n: 2, err: boom}}
	for i := 0; i < 5; i++ {
		if n, err := ew.Write([]byte("x")); err != nil || n != 1 {
			t.Fatalf("write %d surfaced (%d, %v)", i, n, err)
		}
	}
	if !errors.Is(ew.Err(), boom) {
		t.Errorf("Err() = %v, want %v", ew.Err(), boom)
	}
}
