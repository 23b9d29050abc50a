package workload

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
)

// simCase is one sim-mode job simulated at a fixed configuration.
type simCase struct {
	name  string
	id    *identity
	res   conf.Resources
	limit float64 // TestSimulateAllocs' gate
}

// simCases compiles the two jobs the simulate gates run: a mini-batch
// trace job, whose batch loop recompiles a block per iteration, and
// MLogreg, whose table() output recompiles the loop body.
func simCases(tb testing.TB) []simCase {
	tb.Helper()
	cs := []simCase{
		{name: "MinibatchLR XS dense1000", limit: 512},
		{name: "MLogreg S dense1000", limit: 1848},
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
		cs[i].res = conf.NewResources(2*conf.GB, 2*conf.GB, id.prog.hp.NumLeaf)
	}
	return cs
}

// TestSimulateAllocs gates the allocations of one simulated run of each
// case, so that a per-block snapshot of every live variable, a per-hop
// memo map or operand slice, or a per-value allocation cannot come back
// unnoticed. Each limit is the count measured once recompiles re-sized the
// compiled DAG instead of rebuilding it (465 and 1,680), plus 10 %;
// rebuilding from a read-set table took 1,883 and 8,028, and a snapshot
// per recompile, a memo map per block and an operand slice per hop 2,786
// and 10,895.
func TestSimulateAllocs(t *testing.T) {
	for _, c := range simCases(t) {
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			err = simulate(c.id, conf.DefaultCluster(), c.res).err
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %v allocs", c.name, allocs)
		if allocs > c.limit {
			t.Errorf("simulating %s allocates %v times, limit %v", c.name, allocs, c.limit)
		}
	}
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
