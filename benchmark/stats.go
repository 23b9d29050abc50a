package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// samplesBeyond counts the samples that rank strictly above percentile p
// of n samples (nearest-rank).
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the nearest-rank position of percentile p among n samples,
// ceil(p/100 * n), computed in tenths of a percent to stay exact.
func rank(n int, p float64) int {
	return (int(math.Round(p*10))*n + 999) / 1000
}

// tailPercentile returns the highest percentile of the ladder, not above
// ceiling, that still has at least ten of n samples beyond it. A tail read
// off fewer samples is one outlier, not a percentile.
func tailPercentile(n int, ceiling float64) float64 {
	for _, p := range tailLadder {
		if p <= ceiling && samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile p of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the mean of the middle one or two values of v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// bestOf returns the fastest of each op's executions, one per lap. The
// executions of one op do identical work, and what this box adds to a
// latency (a neighbour on the host, the collector) only ever makes it
// longer, so the fastest is the one to compare commits by. An op that
// failed in every lap has no latency and is left out.
func bestOf(perOp [][]time.Duration) []time.Duration {
	var best []time.Duration
	for _, lat := range perOp {
		if len(lat) > 0 {
			best = append(best, slices.Min(lat))
		}
	}
	return best
}

// flatten returns every latency of every op.
func flatten(perOp [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, lat := range perOp {
		all = append(all, lat...)
	}
	return all
}

// serialRate is the throughput, in ops per second, of a workload that runs
// its ops one after another, each at the latency given.
func serialRate(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return float64(len(lat)) / sum.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies summarizes per-op wall latencies: the median and the tail
// percentile chosen by tailPercentile, with the sample count beside them.
type latencies struct {
	P50Ms   float64 `json:"p50_ms"`
	TailMs  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	Samples int     `json:"samples"`
}

func summarize(lat []time.Duration, ceiling float64) latencies {
	v := make([]float64, len(lat))
	for i, d := range lat {
		v[i] = ms(d)
	}
	sort.Float64s(v)
	p := tailPercentile(len(v), ceiling)
	return latencies{P50Ms: percentile(v, 50), TailMs: percentile(v, p), TailPct: p, Samples: len(v)}
}

// memDelta is the allocator and collector activity between two
// runtime.ReadMemStats snapshots.
type memDelta struct {
	Mallocs    uint64
	AllocBytes uint64
	GCPauseNs  uint64
	GCCPUFrac  float64
	HeapSysMB  float64
}

// add accumulates the counts of a later interval and keeps its levels.
func (d *memDelta) add(o memDelta) {
	d.Mallocs += o.Mallocs
	d.AllocBytes += o.AllocBytes
	d.GCPauseNs += o.GCPauseNs
	d.GCCPUFrac, d.HeapSysMB = o.GCCPUFrac, o.HeapSysMB
}

// liveHeapMB forces a collection and returns the heap that survives it.
// HeapSys would be the peak, but it moves in steps of 4 MB, a third to a
// half of the heaps measured here; what is still reachable repeats to
// within a percent.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memProbe snapshots runtime.MemStats; delta reports what happened since.
type memProbe struct{ m runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.m)
	return p
}

func (p *memProbe) delta() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		Mallocs:    now.Mallocs - p.m.Mallocs,
		AllocBytes: now.TotalAlloc - p.m.TotalAlloc,
		GCPauseNs:  now.PauseTotalNs - p.m.PauseTotalNs,
		GCCPUFrac:  now.GCCPUFraction,
		HeapSysMB:  float64(now.HeapSys) / (1 << 20),
	}
}
