// Package obs is the deterministic observability subsystem: a hierarchical
// span tracer and a metrics registry threaded through the compiler, the
// resource optimizer, the runtime interpreter, and the cluster simulators.
//
// Determinism is the defining constraint: spans are stamped with the
// *simulated* clock (the interpreter installs its SimTime via SetClock), and
// layers that run outside simulated time (compilation, initial optimization)
// are stamped with a logical tick clock that advances one microsecond per
// event. Given a deterministic simulation, two runs of the same scenario
// produce byte-identical trace files, so traces are usable as regression
// artifacts, not just for eyeballing.
//
// The zero value of the instrumentation is free: every exported method is
// safe on a nil *Tracer / nil *Metrics and returns immediately, and hot
// paths additionally guard with Enabled()/SpansEnabled() so a disabled run
// pays only a nil check.
package obs

import "sync"

// Layer identifies the system layer a trace event belongs to; each layer is
// rendered as its own thread track in the Chrome trace export.
type Layer string

// The five instrumented layers.
const (
	// LayerCompile covers parsing, HOP construction/rewrites, LOP selection
	// and piggybacking, plus dynamic recompilations.
	LayerCompile Layer = "compile"
	// LayerOptimize covers resource-optimizer grid enumeration.
	LayerOptimize Layer = "optimize"
	// LayerRuntime covers interpreter instruction execution.
	LayerRuntime Layer = "runtime"
	// LayerCluster covers the YARN/MR/HDFS simulators: job phases, task
	// attempts, container and node events.
	LayerCluster Layer = "cluster"
	// LayerAdapt covers runtime resource adaptation and migration.
	LayerAdapt Layer = "adapt"
	// LayerWorkload covers the multi-tenant workload service: tenant
	// queueing, admission, execution, and service-level re-optimization.
	LayerWorkload Layer = "workload"
)

// logicalTick is the logical-clock advance per event (in seconds) for
// events recorded while no simulated clock is installed: one microsecond,
// the base unit of the Chrome trace format.
const logicalTick = 1e-6

// Arg is one key/value annotation of a trace event. Args are kept as an
// ordered slice (not a map) so event construction is allocation-light and
// export order is the insertion order.
type Arg struct {
	Key string
	Val interface{}
}

// A constructs an Arg.
func A(key string, val interface{}) Arg { return Arg{Key: key, Val: val} }

// eventPhase is the Chrome trace_event phase of one recorded event.
type eventPhase byte

const (
	phaseBegin    eventPhase = 'B'
	phaseEnd      eventPhase = 'E'
	phaseComplete eventPhase = 'X'
	phaseInstant  eventPhase = 'i'
)

// event is one recorded trace event (timestamps in simulated seconds).
type event struct {
	phase eventPhase
	layer Layer
	name  string
	ts    float64
	dur   float64 // complete events only
	args  []Arg
}

// Tracer records hierarchical spans and instant events against the
// simulated clock. It is safe for concurrent use, but determinism of the
// recorded order is only guaranteed for single-threaded emitters (the
// parallel optimizer records summary spans on the master only).
type Tracer struct {
	mu      sync.Mutex
	spans   bool
	metrics *Metrics
	clock   func() float64
	base    float64 // clock anchor: ts = base + clock()
	last    float64 // high-water mark keeping timestamps monotonic
	events  []event
}

// New returns an enabled tracer with an attached metrics registry. With
// spans=false only the metrics registry is active (counters still
// accumulate, no events are recorded), which is the cheap mode behind a
// bare -metrics flag.
func New(spans bool) *Tracer {
	return &Tracer{spans: spans, metrics: newMetrics()}
}

// Enabled reports whether any instrumentation (metrics or spans) is active.
// A nil tracer is the disabled sink.
func (t *Tracer) Enabled() bool { return t != nil }

// SpansEnabled reports whether span recording is active; hot paths guard
// event construction with this check so disabled tracing is free.
func (t *Tracer) SpansEnabled() bool { return t != nil && t.spans }

// Metrics returns the attached registry (nil on a nil tracer; all registry
// methods are nil-safe).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// SetClock installs (or with nil removes) the simulated time source. The
// clock is anchored so the trace timeline continues monotonically from the
// current position: events recorded before the interpreter starts (compile,
// initial optimization, on the logical clock) sort before runtime events
// even though the simulated clock starts at zero.
func (t *Tracer) SetClock(fn func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if fn != nil {
		t.base = t.last - fn()
	}
	t.clock = fn
}

// now returns the next event timestamp under t.mu: the anchored simulated
// clock when installed, else the logical tick clock, clamped monotonic.
func (t *Tracer) now() float64 {
	var ts float64
	if t.clock != nil {
		ts = t.base + t.clock()
	} else {
		ts = t.last + logicalTick
	}
	if ts < t.last {
		ts = t.last
	}
	t.last = ts
	return ts
}

// Now returns the current trace timestamp (for callers composing Complete
// events from externally computed durations).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now()
}

// Span is an in-flight Begin/End pair. A nil span (from a disabled tracer)
// ignores all calls.
type Span struct {
	t     *Tracer
	layer Layer
	name  string
}

// Begin opens a span on the given layer. Returns nil when spans are
// disabled; Span methods are nil-safe.
func (t *Tracer) Begin(layer Layer, name string, args ...Arg) *Span {
	if !t.SpansEnabled() {
		return nil
	}
	t.mu.Lock()
	t.events = append(t.events, event{phase: phaseBegin, layer: layer, name: name, ts: t.now(), args: args})
	t.mu.Unlock()
	return &Span{t: t, layer: layer, name: name}
}

// End closes the span; args are attached to the end event (Chrome merges
// begin and end args into one slice view).
func (s *Span) End(args ...Arg) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, event{phase: phaseEnd, layer: s.layer, name: s.name, ts: s.t.now(), args: args})
	s.t.mu.Unlock()
}

// Complete records a closed span with explicit start and duration (in
// simulated seconds) — used when a layer computes a phase breakdown
// analytically and emits the phases after the fact.
func (t *Tracer) Complete(layer Layer, name string, start, dur float64, args ...Arg) {
	if !t.SpansEnabled() {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	if start > t.last {
		t.last = start
	}
	if end := start + dur; end > t.last {
		t.last = end
	}
	t.events = append(t.events, event{phase: phaseComplete, layer: layer, name: name, ts: start, dur: dur, args: args})
	t.mu.Unlock()
}

// CompleteNow records a closed span starting at the current trace clock
// with the given duration.
func (t *Tracer) CompleteNow(layer Layer, name string, dur float64, args ...Arg) {
	if !t.SpansEnabled() {
		return
	}
	t.mu.Lock()
	start := t.now()
	t.mu.Unlock()
	t.Complete(layer, name, start, dur, args...)
}

// Instant records a point event (container kill, task retry, node loss).
func (t *Tracer) Instant(layer Layer, name string, args ...Arg) {
	if !t.SpansEnabled() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, event{phase: phaseInstant, layer: layer, name: name, ts: t.now(), args: args})
	t.mu.Unlock()
}

// snapshot copies the event list for export.
func (t *Tracer) snapshot() []event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]event(nil), t.events...)
}
