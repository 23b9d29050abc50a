package workload

import (
	"testing"

	"elasticml/internal/fault"
	"elasticml/internal/opt"
)

// TestStressOverlapChurn: many overlapping tenants on a tight cluster, two
// node failures, and a tiny plan cache forcing constant eviction churn
// while the event loop mutates cluster and cache state between waves.
func TestStressOverlapChurn(t *testing.T) {
	cc := demoCluster()
	cc.Nodes = 4
	jobs := Generate(1234, 24, 1.5)
	o := DefaultOptions()
	o.CacheEntries = 3 // far below the distinct-key count: heavy eviction
	o.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{3}, At: 10}, {Nodes: []int{0}, At: 40}}
	run := func() *Report {
		s, err := New(cc, o)
		if err != nil {
			t.Fatal(err)
		}
		s.cache = opt.NewCache(o.CacheEntries) // single-lock cache: sharding would loosen the global bound
		rep, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if got := len(rep.Tenants); got != 24 {
		t.Fatalf("want 24 tenant results, got %d", got)
	}
	served := 0
	for _, tn := range rep.Tenants {
		if tn.Served {
			served++
		}
	}
	if served+rep.Unserved != 24 {
		t.Errorf("tenant accounting broken: %d served + %d unserved != 24", served, rep.Unserved)
	}
	if served == 0 {
		t.Error("stress workload served nobody")
	}
	if rep.Cache.Evictions == 0 {
		t.Errorf("want cache eviction churn, got %+v", rep.Cache)
	}
	if rep.NodeFailures != 2 {
		t.Errorf("want 2 node failures, got %d", rep.NodeFailures)
	}
	if rep.Cache.Entries > 3 {
		t.Errorf("cache overflowed its capacity: %+v", rep.Cache)
	}

	// Determinism must survive the churn: a second identical run agrees.
	rep2 := run()
	if rep2.Cache != rep.Cache {
		t.Errorf("cache stats diverged across identical stress runs: %+v vs %+v", rep.Cache, rep2.Cache)
	}
	for i := range rep.Tenants {
		if rep.Tenants[i].OutputHash != rep2.Tenants[i].OutputHash ||
			rep.Tenants[i].Finished != rep2.Tenants[i].Finished {
			t.Errorf("tenant %d diverged across identical stress runs", i)
		}
	}
}
