package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Metrics is a registry of counters, gauges, and histograms. All methods
// are safe for concurrent use and nil-safe (a nil registry discards).
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Histogram{},
	}
}

// NewMetrics returns a standalone registry (normally obtained from a
// Tracer via Metrics()).
func NewMetrics() *Metrics { return newMetrics() }

// Add increments a counter.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counter returns a counter's current value.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SetGauge records the latest value of a gauge.
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Gauge returns a gauge's current value.
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// Observe adds one observation to a histogram.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{Min: math.Inf(1), Max: math.Inf(-1)}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Hist returns a copy of the named histogram (zero value if absent).
func (m *Metrics) Hist(name string) Histogram {
	if m == nil {
		return Histogram{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hists[name]; ok {
		return *h
	}
	return Histogram{}
}

// histBuckets are the upper bounds of the histogram's exponential buckets,
// in whatever unit the metric's name states (simulated seconds for the rt.*
// and workload.* histograms, wall-clock milliseconds for the server's); the
// final implicit bucket is +Inf.
var histBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000}

// Histogram aggregates observations into count/sum/min/max plus fixed
// exponential buckets.
type Histogram struct {
	Count    int64
	Sum      float64
	Min, Max float64
	// Buckets[i] counts observations <= histBuckets[i]; Buckets[len]
	// counts the overflow.
	Buckets [8]int64
}

func (h *Histogram) observe(v float64) {
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	for i, ub := range histBuckets {
		if v <= ub {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(histBuckets)]++
}

// Mean returns the average observation (0 for an empty histogram).
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// WriteText renders the registry as sorted, aligned text lines — the flat
// summary format behind the -metrics flag. Output is deterministic: one
// "kind name value" line per metric, sorted by name within kind.
func (m *Metrics) WriteText(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := writeSorted(w, "counter", m.counters, func(v int64) string {
		return fmt.Sprintf("%d", v)
	}); err != nil {
		return err
	}
	if err := writeSorted(w, "gauge", m.gauges, func(v float64) string {
		return fmt.Sprintf("%g", v)
	}); err != nil {
		return err
	}
	return writeSorted(w, "hist", m.hists, func(h *Histogram) string {
		return fmt.Sprintf("count=%d sum=%.6g min=%.6g max=%.6g mean=%.6g",
			h.Count, h.Sum, h.Min, h.Max, h.Mean())
	})
}

func writeSorted[V any](w io.Writer, kind string, vals map[string]V, render func(V) string) error {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-8s %-36s %s\n", kind, n, render(vals[n])); err != nil {
			return err
		}
	}
	return nil
}

// CounterPoint is one counter in a Snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge in a Snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistPoint is one histogram in a Snapshot (a value copy of the live
// histogram, buckets included).
type HistPoint struct {
	Name string    `json:"name"`
	Hist Histogram `json:"hist"`
}

// MetricsSnapshot is a deterministic, self-contained copy of a registry:
// every slice is sorted by metric name, and nothing aliases live registry
// state, so two snapshots of equal registries marshal byte-identically
// regardless of map iteration order. This is the payload behind the wire
// protocol's MetricsSnapshot frame and the building block for metrics
// diffing.
type MetricsSnapshot struct {
	Counters []CounterPoint `json:"counters,omitempty"`
	Gauges   []GaugePoint   `json:"gauges,omitempty"`
	Hists    []HistPoint    `json:"histograms,omitempty"`
}

// Snapshot returns a sorted, deterministic copy of the registry. A nil
// registry yields the zero snapshot.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, v := range m.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: v})
	}
	for name, v := range m.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: v})
	}
	for name, h := range m.hists {
		s.Hists = append(s.Hists, HistPoint{Name: name, Hist: *h})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// WriteProm renders the snapshot in the Prometheus text exposition format:
// counters and gauges as bare samples, histograms as the conventional
// _bucket/_sum/_count series with cumulative le labels. Metric names have
// dots and dashes mapped to underscores. Output order follows the
// snapshot's sorted order, so it is deterministic.
func (s MetricsSnapshot) WriteProm(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", promName(c.Name), promName(c.Name), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", promName(g.Name), promName(g.Name), g.Value); err != nil {
			return err
		}
	}
	for _, hp := range s.Hists {
		name := promName(hp.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, ub := range histBuckets {
			cum += hp.Hist.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", ub), cum); err != nil {
				return err
			}
		}
		cum += hp.Hist.Buckets[len(histBuckets)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			name, cum, name, hp.Hist.Sum, name, hp.Hist.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a registry metric name onto the Prometheus charset.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch c {
		case '.', '-', ' ':
			b[i] = '_'
		}
	}
	return string(b)
}
