package workload

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"elasticml/internal/conf"
)

// reachableJobs walks everything a service references and returns the jobs
// it reaches.
func reachableJobs(s *Service) []*job {
	jobType := reflect.TypeOf(&job{})
	seen := map[uintptr]bool{}
	var found []*job
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == jobType {
				found = append(found, (*job)(v.UnsafePointer()))
			}
			walk(v.Elem())
		case reflect.Interface:
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(s))
	return found
}

// TestFoldedJobsAnswerFromTheirRows: Result, State and Cancel on a done, a
// failed, a canceled and an unserved job answer what the report says of
// them, and the service reaches no job that is terminal.
func TestFoldedJobsAnswerFromTheirRows(t *testing.T) {
	s, err := New(conf.DefaultCluster(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleChaos()
	submit := func(spec JobSpec) int {
		idx, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	done := submit(fixedWidthJob("done", "XS", 0, 1))
	for s.Step() {
	}
	failed := submit(JobSpec{Tenant: "failed", Source: "x = (", Arrival: s.Frontier()})
	for s.Step() {
	}
	canceled := submit(fixedWidthJob("canceled", "XS", s.Frontier(), 1))
	s.Step()
	if st, _ := s.State(canceled); st != "running" {
		t.Fatalf("the job to cancel is %s, want running", st)
	}
	if !s.Cancel(canceled) {
		t.Fatal("Cancel refused a running job")
	}
	unserved := submit(fixedWidthJob("unserved", "XS", s.Frontier()+100, 1))
	if st, _ := s.State(unserved); st != "pending" {
		t.Fatalf("the job left pending is %s", st)
	}
	rep := s.Finalize()

	for _, c := range []struct {
		idx          int
		state, error string
		served       bool
	}{
		{done, "done", "", true},
		{failed, "failed", `parse: dml: line 1: unexpected EOF "" (line 1) in expression`, false},
		{canceled, "canceled", "workload: job canceled: canceled", false},
		{unserved, "unserved", "", false},
	} {
		st, ok := s.State(c.idx)
		r, rok := s.Result(c.idx)
		if !ok || !rok || st != c.state || r.Error != c.error || r.Served != c.served || r.Canceled != (c.state == "canceled") {
			t.Errorf("job %d: state %q (%v), error %q, served %v; want %q, %q, %v",
				c.idx, st, ok && rok, r.Error, r.Served, c.state, c.error, c.served)
		}
		if !reflect.DeepEqual(r, rep.Tenants[c.idx]) {
			t.Errorf("job %d: Result differs from its report row:\n%+v\n%+v", c.idx, r, rep.Tenants[c.idx])
		}
		if s.Cancel(c.idx) {
			t.Errorf("job %d: Cancel accepted a %s job", c.idx, c.state)
		}
	}
	n := len(rep.Tenants)
	if _, ok := s.Result(n); ok {
		t.Error("Result answered an index never submitted")
	}
	if _, ok := s.State(-1); ok {
		t.Error("State answered a negative index")
	}
	if s.Cancel(n) {
		t.Error("Cancel accepted an index never submitted")
	}
	if js := reachableJobs(s); len(js) != 0 {
		t.Errorf("the service still reaches %d jobs, the first %q in state %v", len(js), js[0].result.Tenant, js[0].state)
	}
}

// serveJobs serves n hot-key script jobs one after another, through Submit
// and Step as the daemon does, on a fresh service: LinregDS, LinregCG and
// L2SVM over XS inputs of 50–149 columns, 300 distinct cache keys.
func serveJobs(tb testing.TB, n int) *Service {
	s, err := New(conf.DefaultCluster(), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	s.ScheduleChaos()
	names := []string{"LinregDS", "LinregCG", "L2SVM"}
	for i := 0; i < n; i++ {
		spec, err := ScenarioJob{
			Tenant: fmt.Sprintf("t%d", i), Script: names[i%len(names)],
			Size: "XS", Cols: int64(50 + i%100), Arrival: s.Frontier(),
		}.Resolve()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Submit(spec); err != nil {
			tb.Fatal(err)
		}
		for s.Step() {
		}
		s.DrainFinished()
	}
	return s
}

// retainedPerServedJob is the live heap a service keeps per job it served:
// the slope between a service that served 2,000 jobs and one that served
// 6,000, so what every service holds regardless (the plan cache of its
// 300 keys) cancels.
func retainedPerServedJob(tb testing.TB) float64 {
	live := func(n int) float64 {
		s := serveJobs(tb, n)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		return float64(ms.HeapAlloc)
	}
	lo := live(2000)
	return (live(6000) - lo) / 4000
}

// TestServedJobRetention: a served job leaves its report row (with the
// strings it names) and its slot in the job index behind, nothing else.
// The bound is the measured slope, 395 B, plus 25 %; a service that kept
// each finished job with its spec retained 2,074 B per job.
func TestServedJobRetention(t *testing.T) {
	const bound = 495
	if got := retainedPerServedJob(t); got > bound {
		t.Errorf("a served job retains %.0f B, bound %d B", got, bound)
	}
}

// BenchmarkServedJobs reports the live heap a service retains per served
// job (see retainedPerServedJob).
func BenchmarkServedJobs(b *testing.B) {
	var perJob float64
	for i := 0; i < b.N; i++ {
		perJob = retainedPerServedJob(b)
	}
	b.ReportMetric(perJob, "retained-B/job")
}
