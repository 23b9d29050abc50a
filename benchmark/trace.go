package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent indexes the span that caused
// it (-1 for the root of an op); spans of one pipeline, job or trace share
// OpID.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	now   func() time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), now: time.Now}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := t.now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: start, Parent: parent, OpID: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := t.now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNs = end
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the durations of its direct
// children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// layerTimes sums self time per span name over the trees whose root name
// is in roots, and separately the self time of those roots: time inside an
// op that no layer span accounts for.
func layerTimes(spans []span, roots map[string]bool) (byName map[string]int64, unattributed int64) {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	byName = map[string]int64{}
	for i, s := range spans {
		rootOf[i] = i
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
		}
		if !roots[spans[rootOf[i]].Name] {
			continue
		}
		if s.Parent < 0 {
			unattributed += self[i]
		} else {
			byName[s.Name] += self[i]
		}
	}
	return byName, unattributed
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.EndNs-s.StartNs))
		}
	}
	return d
}

// medianUs is the median duration in microseconds of the spans named name.
func medianUs(spans []span, name string) float64 {
	return median(durations(spans, name)) / 1e3
}

// writeSpans writes the spans of each traced run, keyed by workload.
func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
