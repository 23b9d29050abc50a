package workload

import (
	"runtime"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
)

// simCase is one sim-mode job simulated at a fixed configuration.
type simCase struct {
	name       string
	id         *identity
	res        conf.Resources
	limit      float64 // TestSimulateAllocs' gate on allocations
	bytesLimit float64 // and on bytes allocated
}

// simCases compiles the two jobs the simulate gates run: a mini-batch
// trace job, whose batch loop recompiles a block per iteration, and
// MLogreg, whose table() output recompiles the loop body.
func simCases(tb testing.TB) []simCase {
	tb.Helper()
	cs := []simCase{
		{name: "MinibatchLR XS dense1000", limit: 285, bytesLimit: 39_919},
		{name: "MLogreg S dense1000", limit: 897, bytesLimit: 123_167},
	}
	specs := []JobSpec{
		{Script: scripts.MinibatchLR(), Scenario: datagen.New("XS", 1000, 1.0)},
		{Script: scripts.MLogreg(), Scenario: datagen.New("S", 1000, 1.0)},
	}
	s, err := New(conf.DefaultCluster(), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for i, spec := range specs {
		id, err := identify(spec)
		if err != nil {
			tb.Fatal(err)
		}
		if id.prog, err = s.compile(id); err != nil {
			tb.Fatal(err)
		}
		cs[i].id = id
		cs[i].res = conf.NewResources(2*conf.GB, 2*conf.GB, id.prog.NumLeaf)
	}
	return cs
}

// TestSimulateAllocs gates the allocations of one simulated run of each
// case, so that a per-block snapshot of every live variable, a per-hop
// memo map or operand slice, or a per-value allocation cannot come back
// unnoticed. Each limit is the count measured once an interpreter reused
// the storage of a block's recompile, plan and evaluation from one
// execution to the next (259 and 815), plus 10 %; fresh storage per
// execution took 465 and 1,680, rebuilding from a read-set table 1,883
// and 8,028, and a snapshot per recompile, a memo map per block and an
// operand slice per hop 2,786 and 10,895.
//
// It gates the bytes as well, which set how often the collector runs: a
// recompile, a plan or an evaluation that allocates its storage afresh on
// every execution of a block fails it. Each limit is the 36,290 and
// 111,970 bytes measured with that reuse, plus 10 %; fresh storage per
// execution took 183,395 and 768,113.
func TestSimulateAllocs(t *testing.T) {
	for _, c := range simCases(t) {
		var err error
		run := func() { err = simulate(c.id, conf.DefaultCluster(), c.res).err }
		allocs := testing.AllocsPerRun(5, run)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bytes := bytesPerRun(5, run)
		t.Logf("%s: %v allocs, %.0f bytes", c.name, allocs, bytes)
		if allocs > c.limit {
			t.Errorf("simulating %s allocates %v times, limit %v", c.name, allocs, c.limit)
		}
		if bytes > c.bytesLimit {
			t.Errorf("simulating %s allocates %.0f bytes, limit %.0f", c.name, bytes, c.bytesLimit)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average bytes one
// call of f allocates over runs calls, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkSimulate runs each case once per op.
func BenchmarkSimulate(b *testing.B) {
	for _, c := range simCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if sr := simulate(c.id, conf.DefaultCluster(), c.res); sr.err != nil {
					b.Fatal(sr.err)
				}
			}
		})
	}
}
