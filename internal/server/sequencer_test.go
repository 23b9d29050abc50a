package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/obs"
	"elasticml/internal/workload"
)

func testCluster() conf.Cluster {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	return cc
}

func reportJSON(t *testing.T, rep *workload.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report json: %v", err)
	}
	return buf.Bytes()
}

// TestSequencerReplayIdentical: a live run with concurrent submitters and
// a cancellation replays to a byte-identical report from the recorded op
// log alone — the server-determinism property the CI gate checks. The tick
// rows pin that the log carries the policy and the elastic options: tick
// events consume steps, so a replay that does not schedule them diverges.
func TestSequencerReplayIdentical(t *testing.T) {
	for _, c := range []struct {
		policy workload.Policy
		tick   float64
	}{
		{workload.PolicyFIFO, 0},
		{workload.PolicyFIFO, 5},
		{workload.PolicyFair, 5},
		{workload.PolicyRegret, 5},
	} {
		t.Run(fmt.Sprintf("%v-tick%g", c.policy, c.tick), func(t *testing.T) {
			o := workload.DefaultOptions()
			o.Policy = c.policy
			o.Elastic.Tick = c.tick
			o.Trace = obs.New(false)
			testReplayIdentical(t, o)
		})
	}
}

func testReplayIdentical(t *testing.T, o workload.Options) {
	seq, err := NewSequencer(testCluster(), o, 0)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	results := map[int]workload.TenantResult{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scripts := []string{"LinregDS", "LinregCG", "L2SVM"}
			for i := 0; i < 6; i++ {
				spec := JobSpecWire{
					Tenant: fmt.Sprintf("g%d-t%d", g, i),
					Script: scripts[(g+i)%len(scripts)],
					Size:   "XS", Cols: 100, Sparsity: 1.0,
				}
				job, _, err := seq.Submit(spec, func(idx int, res workload.TenantResult) {
					mu.Lock()
					results[idx] = res
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i == 3 {
					if _, err := seq.Cancel(job); err != nil {
						t.Errorf("cancel: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	live := seq.Drain()
	log := seq.Log()

	if len(log.Ops) != 4*6+4 {
		t.Fatalf("recorded %d ops, want %d", len(log.Ops), 4*6+4)
	}
	mu.Lock()
	n := len(results)
	mu.Unlock()
	if n != 24 {
		t.Fatalf("delivered %d results, want 24", n)
	}

	if log.Options.Trace != nil {
		t.Fatal("recorded options keep the live tracer")
	}
	replayed, err := Replay(log)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	a, b := reportJSON(t, live), reportJSON(t, replayed)
	if !bytes.Equal(a, b) {
		t.Fatalf("live and replayed reports differ:\n--- live ---\n%s\n--- replay ---\n%s", a, b)
	}

	// The log itself survives a JSON round trip and still replays clean.
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	log2, err := ReadRecordLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed2, err := Replay(log2)
	if err != nil {
		t.Fatalf("replay after round trip: %v", err)
	}
	if c := reportJSON(t, replayed2); !bytes.Equal(a, c) {
		t.Fatal("round-tripped log replays differently")
	}
}

// TestSequencerArrivalsMonotone: assigned simulated arrivals strictly
// increase, and never precede the frontier.
func TestSequencerArrivalsMonotone(t *testing.T) {
	seq, err := NewSequencer(testCluster(), workload.DefaultOptions(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for i := 0; i < 8; i++ {
		_, at, err := seq.Submit(JobSpecWire{Tenant: fmt.Sprintf("t%d", i), Script: "L2SVM", Size: "XS", Cols: 100}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if at <= last {
			t.Fatalf("arrival %d not monotone: %g after %g", i, at, last)
		}
		last = at
	}
	rep := seq.Drain()
	for _, tr := range rep.Tenants {
		if !tr.Served {
			t.Fatalf("tenant %s not served: %+v", tr.Tenant, tr)
		}
	}
}

// TestSequencerStatusAndCancel: status reflects lifecycle; canceling a
// finished job reports ok=false; canceled jobs carry the typed error text.
func TestSequencerStatusAndCancel(t *testing.T) {
	seq, err := NewSequencer(testCluster(), workload.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := seq.Submit(JobSpecWire{Tenant: "alpha", Script: "LinregDS", Size: "XS", Cols: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := seq.Status(job); err != nil || !ok {
		t.Fatalf("status: ok=%v err=%v", ok, err)
	}
	if _, _, ok, _ := seq.Status(99); ok {
		t.Fatal("status of unknown job reported ok")
	}

	victim, _, err := seq.Submit(JobSpecWire{Tenant: "victim", Script: "L2SVM", Size: "XS", Cols: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock timing decides whether the cancel lands before the event
	// loop finished the victim; both histories must stay self-consistent
	// (the deterministic cancel semantics are pinned by
	// TestServiceCancelStates below).
	ok, err := seq.Cancel(victim)
	if err != nil {
		t.Fatal(err)
	}
	if ok2, _ := seq.Cancel(victim); ok2 {
		t.Fatal("double cancel reported ok")
	}
	rep := seq.Drain()
	tr := rep.Tenants[victim]
	if ok {
		if !tr.Canceled || tr.Served || rep.Canceled != 1 {
			t.Fatalf("cancel acknowledged but not recorded: %+v (report canceled=%d)", tr, rep.Canceled)
		}
	} else if !tr.Served {
		t.Fatalf("cancel refused yet job not served: %+v", tr)
	}

	// After drain, everything fails fast instead of hanging.
	if _, _, err := seq.Submit(JobSpecWire{Tenant: "late", Script: "L2SVM"}, nil); err == nil {
		t.Fatal("submit after drain succeeded")
	}
}

// TestServiceCancelStates drives the workload service synchronously and
// pins the deterministic cancel semantics per lifecycle state: pending and
// queued jobs never run, a running job frees its container for the queue,
// and terminal jobs refuse cancellation.
func TestServiceCancelStates(t *testing.T) {
	svc, err := workload.New(testCluster(), workload.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc.ScheduleChaos()
	wire := JobSpecWire{Script: "LinregDS", Size: "XS", Cols: 100, Sparsity: 1.0}
	submit := func(tenant string, at float64) int {
		w := wire
		w.Tenant = tenant
		spec, err := w.toJobSpec(at)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	pending := submit("pending", 0)
	if !svc.Cancel(pending) {
		t.Fatal("cancel of pending job refused")
	}
	if st, _ := svc.State(pending); st != "canceled" {
		t.Fatalf("pending job state %q", st)
	}

	runner := submit("runner", 0)
	for svc.Step() {
		if st, _ := svc.State(runner); st == "running" {
			break
		}
	}
	if st, _ := svc.State(runner); st != "running" {
		t.Fatalf("runner state %q, want running", st)
	}
	if !svc.Cancel(runner) {
		t.Fatal("cancel of running job refused")
	}
	if svc.Cancel(runner) {
		t.Fatal("double cancel of running job accepted")
	}
	for svc.Step() {
	}
	rep := svc.Finalize()
	if rep.Canceled != 2 {
		t.Fatalf("report canceled=%d, want 2", rep.Canceled)
	}
	for _, tr := range rep.Tenants {
		if !tr.Canceled || tr.Served {
			t.Fatalf("tenant %s not recorded canceled: %+v", tr.Tenant, tr)
		}
		if tr.Error == "" {
			t.Fatalf("tenant %s canceled without error text", tr.Tenant)
		}
	}
}

// fillNonZero sets every exported field v reaches that JSON carries (no
// `json:"-"` tag) to a non-zero value, allocating pointers and one element
// per slice. Integers become 1, a valid value of the named enums too.
func fillNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fillNonZero(t, v.Field(i))
			}
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0))
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillNonZero: unhandled kind %v (%v)", v.Kind(), v.Type())
	}
}

// TestRecordLogRoundTrip: every option and cluster field the JSON form
// carries survives WriteJSON → ReadRecordLog. The fields are enumerated by
// reflection, so one added to workload.Options (or to anything it contains)
// is covered the day it is added.
func TestRecordLogRoundTrip(t *testing.T) {
	var log RecordLog
	fillNonZero(t, reflect.ValueOf(&log.Options).Elem())
	fillNonZero(t, reflect.ValueOf(&log.Cluster).Elem())
	if log.Options.Policy == 0 || log.Options.Elastic.Tick == 0 || log.Options.Chaos.Storm == nil {
		t.Fatalf("fillNonZero left fields zero: %+v", log.Options)
	}
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	back, err := ReadRecordLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&log, back) {
		t.Fatalf("record log changed in the round trip:\nwrote %+v\nread  %+v\njson:\n%s", log, *back, written)
	}
}

// TestLegacyOpLogReplays: an op log recorded while the service options
// still carried a "workers" key replays, and to the same report as the log
// without it — ReadRecordLog skips keys the options no longer have, so
// existing recordings stay usable.
func TestLegacyOpLogReplays(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_workers_ops.json"))
	if err != nil {
		t.Fatal(err)
	}
	current := strings.Replace(string(legacy), `"workers": 4,`, "", 1)
	if current == string(legacy) {
		t.Fatal(`legacy log has no "workers" key`)
	}
	replay := func(doc string) *workload.Report {
		t.Helper()
		l, err := ReadRecordLog(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(l)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	old := replay(string(legacy))
	if a, b := reportJSON(t, old), reportJSON(t, replay(current)); !bytes.Equal(a, b) {
		t.Fatalf("legacy and current logs replay differently:\n--- legacy ---\n%s\n--- current ---\n%s", a, b)
	}
	if len(old.Tenants) != 4 {
		t.Fatalf("%d tenants, want 4", len(old.Tenants))
	}
	for _, tn := range old.Tenants {
		if canceled := tn.Tenant == "b"; tn.Canceled != canceled || tn.Served == canceled {
			t.Errorf("%s: canceled %v, served %v", tn.Tenant, tn.Canceled, tn.Served)
		}
	}
}
