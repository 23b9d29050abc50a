package workload

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/verify"
)

const fuzzSeed = 7

// fuzzJobs turns K generated fuzzer programs into overlapping value-mode
// tenant submissions.
func fuzzJobs(k int) []JobSpec {
	jobs := make([]JobSpec, k)
	for i := 0; i < k; i++ {
		p := verify.FuzzProgram(fuzzSeed, i)
		jobs[i] = JobSpec{
			Tenant:  fmt.Sprintf("fuzz-%02d", i),
			Source:  p.Source,
			Params:  p.Params,
			Setup:   p.Setup,
			Arrival: float64(i), // 1s apart — well inside each other's runtimes
		}
	}
	return jobs
}

// isolatedRun executes one fuzzer program alone: fresh file system,
// cold optimization, value-mode execution — the reference the concurrent
// service run must match bit for bit.
func isolatedRun(t *testing.T, p verify.Program, cc conf.Cluster) (map[string]*matrix.Matrix, string) {
	t.Helper()
	fs := hdfs.New()
	if p.Setup != nil {
		p.Setup(fs)
	}
	prog, err := dml.Parse(p.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", p.Name, err)
	}
	hp, err := hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name, err)
	}
	res := opt.New(cc).Optimize(hp).Res
	plan := lop.Select(hp, cc, res)
	ip := rt.New(rt.ModeValue, fs, cc, res)
	var out bytes.Buffer
	ip.Out = &out
	if err := ip.Run(plan); err != nil {
		t.Fatalf("%s: run: %v", p.Name, err)
	}
	outputs := map[string]*matrix.Matrix{}
	for _, name := range fs.List() {
		f, err := fs.Stat(name)
		if err != nil || f.Data == nil || len(name) < 4 || name[:4] != "/out" {
			continue
		}
		outputs[name] = f.Data
	}
	return outputs, out.String()
}

// sameMatrix demands bit-identical cells.
func sameMatrix(a, b *matrix.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestFuzzConcurrentMatchesIsolated: K fuzzer programs pushed through the
// multi-tenant service — contending for memory, admitted under degraded
// clamped configurations, re-optimized on departures — must produce
// bit-identical outputs and print streams to sequential isolated runs.
// This leans on the repo's core invariant: resource configurations change
// the plan, never the result.
func TestFuzzConcurrentMatchesIsolated(t *testing.T) {
	const k = 6
	cc := demoCluster()
	jobs := fuzzJobs(k)
	o := DefaultOptions()
	rep, err := Run(cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unserved != 0 {
		t.Fatalf("want all fuzz tenants served, got %d unserved", rep.Unserved)
	}
	if rep.MaxConcurrent < 2 {
		t.Errorf("fuzz tenants did not overlap (peak %d); widen the runtimes", rep.MaxConcurrent)
	}

	for i := 0; i < k; i++ {
		p := verify.FuzzProgram(fuzzSeed, i)
		wantOut, wantPrints := isolatedRun(t, p, cc)
		got := rep.Tenants[i]
		if got.Prints != wantPrints {
			t.Errorf("fuzz-%02d print stream diverged:\n--- service ---\n%s--- isolated ---\n%s",
				i, got.Prints, wantPrints)
		}
		if len(got.Outputs) != len(wantOut) {
			t.Errorf("fuzz-%02d wrote %d outputs in service, %d isolated", i, len(got.Outputs), len(wantOut))
			continue
		}
		paths := make([]string, 0, len(wantOut))
		for path := range wantOut {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			g, ok := got.Outputs[path]
			if !ok {
				t.Errorf("fuzz-%02d missing output %s in service run", i, path)
				continue
			}
			if !sameMatrix(g, wantOut[path]) {
				t.Errorf("fuzz-%02d output %s not bit-identical between service and isolated run", i, path)
			}
		}
	}
}

// TestFuzzElasticChaos interleaves seeded grow/shrink with chaos flaps and
// a shed-mode circuit breaker: K malleable fuzzer programs (half pinned to
// MinContainers 2) under the regret policy with a fast elasticity tick.
// Invariants: no served job ever ran below its MinContainers, the report's
// WastedWork equals the per-tenant sum, served outputs still match the
// isolated reference bit for bit, and the service leaks no goroutines.
func TestFuzzElasticChaos(t *testing.T) {
	const k = 6
	cc := demoCluster()
	jobs := fuzzJobs(k)
	for i := range jobs {
		jobs[i].Elastic = ElasticSpec{MinContainers: 1, DesiredContainers: 2, MaxContainers: 4}
		if i%2 == 1 {
			jobs[i].Elastic.MinContainers = 2
		}
	}
	o := DefaultOptions()
	o.Policy = PolicyRegret
	o.Elastic.Tick = 1
	o.Breaker = BreakerPolicy{Enabled: true}
	o.Chaos = fault.ChaosPlan{Flaps: []fault.Flap{
		{Node: 1, At: 3, RestoreAfter: 0.5},
		{Node: 0, At: 9, RestoreAfter: 0.5},
	}}

	before := runtime.NumGoroutine()
	rep, err := runChecked(t, cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}

	var wastedSum float64
	resized := 0
	for i, tn := range rep.Tenants {
		wastedSum += tn.WastedWork
		resized += tn.Grows + tn.Shrinks
		if !tn.Served {
			continue
		}
		min := jobs[i].Elastic.normalized().MinContainers
		if tn.MinWidth > 0 && tn.MinWidth < min {
			t.Errorf("%s ran at width %d below MinContainers %d", tn.Tenant, tn.MinWidth, min)
		}
		if tn.Width > jobs[i].Elastic.MaxContainers {
			t.Errorf("%s ended at width %d above MaxContainers %d", tn.Tenant, tn.Width, jobs[i].Elastic.MaxContainers)
		}
		p := verify.FuzzProgram(fuzzSeed, i)
		wantOut, wantPrints := isolatedRun(t, p, cc)
		if tn.Prints != wantPrints {
			t.Errorf("%s print stream diverged under elastic chaos", tn.Tenant)
		}
		for path, want := range wantOut {
			if g, ok := tn.Outputs[path]; !ok || !sameMatrix(g, want) {
				t.Errorf("%s output %s diverged under elastic chaos", tn.Tenant, path)
			}
		}
	}
	if resized == 0 {
		t.Error("no grow/shrink fired; the fuzz run is not exercising elasticity")
	}
	if math.Abs(rep.WastedWork-wastedSum) > 1e-9 {
		t.Errorf("report WastedWork %.6f != per-tenant sum %.6f", rep.WastedWork, wastedSum)
	}
	// Run must leave no goroutine behind; give any exiting one a moment to
	// unwind before declaring a leak.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("goroutines grew from %d to %d after Run returned", before, got)
	}
}

// TestFuzzConcurrentWithFailures repeats the differential check under a
// node failure: requeued fuzz tenants re-execute from a fresh compile, so
// their outputs must still match the isolated reference exactly.
func TestFuzzConcurrentWithFailures(t *testing.T) {
	const k = 4
	cc := demoCluster()
	jobs := fuzzJobs(k)
	o := DefaultOptions()
	o.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{0}, At: 2.5}}
	rep, err := runChecked(t, cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unserved != 0 {
		t.Fatalf("want all fuzz tenants served, got %d unserved", rep.Unserved)
	}
	for i := 0; i < k; i++ {
		p := verify.FuzzProgram(fuzzSeed, i)
		wantOut, wantPrints := isolatedRun(t, p, cc)
		got := rep.Tenants[i]
		if got.Prints != wantPrints {
			t.Errorf("fuzz-%02d print stream diverged under failure", i)
		}
		for path, want := range wantOut {
			if g, ok := got.Outputs[path]; !ok || !sameMatrix(g, want) {
				t.Errorf("fuzz-%02d output %s diverged under failure", i, path)
			}
		}
	}
}
