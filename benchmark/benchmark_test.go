package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	type inputs struct {
		Hot, Cold interface{}
		Order     []int
		Churn     churnTrace
	}
	gen := func(seed int64) inputs {
		return inputs{
			Hot:   hotStream(seed).take(650),
			Cold:  coldStream(seed, coldColsLo, coldColsN).take(40),
			Order: sweepOrder(seed, 3, len(sweepProblems())),
			Churn: genChurnTrace(seed, 2),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.Hot, c.Hot) || reflect.DeepEqual(a.Cold, c.Cold) ||
		reflect.DeepEqual(a.Order, c.Order) || reflect.DeepEqual(a.Churn, c.Churn) {
		t.Fatal("two seeds gave the same inputs")
	}
}

func TestStreamsAreStratified(t *testing.T) {
	hot := map[[2]interface{}]int{}
	for _, j := range hotStream(3).take(2 * len(hotScripts) * hotColsN) {
		hot[[2]interface{}{j.Script, j.Cols}]++
	}
	if len(hot) != len(hotScripts)*hotColsN {
		t.Fatalf("serve_hot has %d distinct keys, want %d", len(hot), len(hotScripts)*hotColsN)
	}
	for k, n := range hot {
		if n != 2 {
			t.Fatalf("two decks hold key %v %d times", k, n)
		}
	}
	cols := map[int64]bool{}
	for _, j := range coldStream(3, coldColsLo, coldColsN).take(3000) {
		if cols[j.Cols] {
			t.Fatalf("serve_cold repeats column count %d", j.Cols)
		}
		cols[j.Cols] = true
		if j.Cols < coldColsLo || j.Cols >= coldWarmCols {
			t.Fatalf("column count %d reaches into the warm-up range", j.Cols)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n       int
		ceiling float64
		want    float64
	}{
		{10000, 99.9, 99.9}, {9999, 99.9, 99}, {1000, 99, 99}, {999, 99, 95},
		{200, 99, 95}, {199, 99, 90}, {100, 99, 90}, {99, 99, 75}, {40, 99, 75},
		{39, 99, 50}, {5, 99, 50}, {5000, 95, 95}, {150, 90, 90},
	} {
		if got := tailPercentile(c.n, c.ceiling); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.ceiling, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p := percentile(sorted, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %g", p)
	}
	if beyond := samplesBeyond(100, 90); beyond != 10 {
		t.Errorf("samples beyond p90 of 100 = %d", beyond)
	}
}

func TestLapsKeepEachOpsFastestExecution(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{1, 2}, {10, 3}, {16, 4}, {60, 15}} {
		if got := lapCount(c.seconds); got != c.want {
			t.Errorf("lapCount(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
	ms := time.Millisecond
	// Three ops over three laps; the second failed in every lap, the third
	// in one.
	perOp := [][]time.Duration{{4 * ms, 2 * ms, 3 * ms}, nil, {8 * ms, 9 * ms}}
	best := bestOf(perOp)
	if want := []time.Duration{2 * ms, 8 * ms}; !reflect.DeepEqual(best, want) {
		t.Fatalf("bestOf = %v, want %v", best, want)
	}
	if got := serialRate(best); got != 200 {
		t.Errorf("two ops in 10 ms are %g ops/s, want 200", got)
	}
	if got := len(flatten(perOp)); got != 5 {
		t.Errorf("flatten kept %d latencies, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] holds a [10,40] and b [50,90]; b holds c [60,70]. A second
	// root, overlapped [0,500], is not among the serial roots.
	spans := []span{
		{Name: "op", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 50, EndNs: 90, Parent: 0},
		{Name: "c", StartNs: 60, EndNs: 70, Parent: 2},
		{Name: "overlapped", StartNs: 0, EndNs: 500, Parent: -1},
		{Name: "a", StartNs: 0, EndNs: 400, Parent: 4},
	}
	if got, want := selfTimes(spans), []int64{30, 30, 30, 10, 100, 400}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	byName, unattributed := layerTimes(spans, map[string]bool{"op": true})
	if want := map[string]int64{"a": 30, "b": 30, "c": 10}; !reflect.DeepEqual(byName, want) || unattributed != 30 {
		t.Fatalf("layer times %v + %d unattributed, want %v + 30", byName, unattributed, want)
	}
}

func TestTracerWritesSpans(t *testing.T) {
	tick := time.Unix(0, 0)
	tr := &tracer{t0: tick, now: func() time.Time { tick = tick.Add(time.Microsecond); return tick }}
	root := tr.begin("op", -1, 4)
	child := tr.begin("stage", root, 4)
	tr.end(child)
	tr.end(root)
	var none *tracer
	none.end(none.begin("ignored", -1, 0))

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, map[string][]span{"w": tr.spans}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string][]span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	want := []span{{"op", 1000, 4000, -1, 4}, {"stage", 2000, 3000, 0, 4}}
	if !reflect.DeepEqual(back["w"], want) {
		t.Fatalf("spans %+v, want %+v", back["w"], want)
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ck := &fakeClock{t: time.Unix(100, 0)}
	const period = 20 * time.Millisecond
	calls := 0
	ps := openLoop(ck, period, func() bool { return calls == 6 }, func() error {
		calls++
		switch calls {
		case 3: // the probe due at 40 ms stalls for 50 ms
			ck.Sleep(50 * time.Millisecond)
		case 6:
			return errors.New("refused")
		default:
			ck.Sleep(time.Millisecond)
		}
		return nil
	})
	msec := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i, x := range v {
			d[i] = time.Duration(x) * time.Millisecond
		}
		return d
	}
	// The probes due at 60 and 80 ms wait behind the stall: a closed loop
	// would time them at 1 ms each, an open loop sees 31 and 12.
	if want := msec(1, 1, 50, 31, 12); !reflect.DeepEqual(ps.lat, want) {
		t.Errorf("latencies %v, want %v", ps.lat, want)
	}
	if want := msec(0, 0, 0, 30, 11); !reflect.DeepEqual(ps.late, want) {
		t.Errorf("lateness %v, want %v", ps.late, want)
	}
	if ps.errs != 1 {
		t.Errorf("errors %d, want 1", ps.errs)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONNamesWhatTheBinaryPrints(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) || !reflect.DeepEqual(f.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v over paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the binary's default is %d", f.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the binary runs %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end is\n%v\nthe binary has\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer is\n%v\nthe binary has\n%v", layer, perLayer)
	}

	// The summary line carries exactly those metrics.
	for _, traced := range []bool{false, true} {
		res := newResult("opt_sweep", runConfig{Trace: traced})
		res.Attempted, res.Correct = 1, true
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			res.Metrics[d.Name] = 1.5
		}
		line, err := contractLine(res)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader([]byte(line)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace=%v: the line has %d metrics, want %d", traced, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value != 1.5 {
				t.Errorf("trace=%v: metric %s printed as %+v", traced, d.Name, m)
			}
		}
	}
	if _, err := contractLine(newResult("opt_sweep", runConfig{})); err == nil {
		t.Error("an untraced run that measured nothing printed a summary line")
	}
}
