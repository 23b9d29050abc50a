package adapt

import (
	"slices"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/yarn"
)

// setup compiles a spec in sim mode over descriptor data and returns an
// interpreter wired to a fresh adapter.
func setup(t *testing.T, spec scripts.Spec, n, m int64, tableCols int64) (*rt.Interp, *Adapter, *lop.Plan) {
	t.Helper()
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cc := conf.DefaultCluster()
	res := conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf)
	plan := lop.Select(hp, cc, res)
	ip := rt.New(rt.ModeSim, fs, cc, res)
	ip.SimTableCols = tableCols
	ad := New(cc)
	ad.Opt.Points = 7
	ip.Adapter = ad
	return ip, ad, plan
}

func TestMLogregAdaptsAndMigrates(t *testing.T) {
	// Scenario M dense100: 1e7 x 100 = 8GB; 200 classes make the gradient
	// matrices huge and unknown initially (the paper's §4.2 example).
	ip, ad, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	if err := ip.Run(plan); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ad.Stats.Reoptimizations == 0 {
		t.Error("expected runtime re-optimizations")
	}
	if ip.Stats.Migrations == 0 {
		t.Error("expected at least one migration (initial 512MB CP is far off)")
	}
	if ip.Stats.Migrations > 3 {
		t.Errorf("too many migrations: %d (paper: at most two)", ip.Stats.Migrations)
	}
	if ip.Res.CP <= 512*conf.MB {
		t.Errorf("CP should have grown, still %v", ip.Res.CP)
	}
}

func TestAdaptationImprovesRuntime(t *testing.T) {
	runWith := func(adapter bool) float64 {
		ip, _, plan := setup(t, scripts.MLogreg(), 100_000, 1000, 2)
		if !adapter {
			ip.Adapter = nil
		}
		if err := ip.Run(plan); err != nil {
			t.Fatalf("run: %v", err)
		}
		return ip.SimTime
	}
	with := runWith(true)
	without := runWith(false)
	if with > without*1.05 {
		t.Errorf("adaptation slowed execution: %.1fs vs %.1fs", with, without)
	}
}

func TestNoMigrationWhenConfigAlreadyGood(t *testing.T) {
	// Large-CP start: re-optimization should not migrate.
	fs := hdfs.New()
	n, m := int64(100_000), int64(100) // 80MB
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	spec := scripts.MLogreg()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	cc := conf.DefaultCluster()
	res := conf.NewResources(8*conf.GB, 2*conf.GB, hp.NumLeaf)
	plan := lop.Select(hp, cc, res)
	ip := rt.New(rt.ModeSim, fs, cc, res)
	ip.SimTableCols = 2
	ad := New(cc)
	ad.Opt.Points = 7
	ip.Adapter = ad
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	if ip.Stats.Migrations != 0 {
		t.Errorf("well-provisioned run migrated %d times", ip.Stats.Migrations)
	}
}

func TestMigrationExportsState(t *testing.T) {
	ip, _, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	if ip.Stats.Migrations == 0 {
		t.Skip("no migration occurred")
	}
	// The AM state (live variables + config marker) must be on the DFS.
	found := 0
	for _, name := range ip.FS.List() {
		if len(name) > len(rt.StatePrefix) && name[:len(rt.StatePrefix)] == rt.StatePrefix {
			found++
		}
	}
	if found < 2 {
		t.Errorf("expected exported AM state on DFS, found %d entries", found)
	}
	if !ip.FS.Exists(rt.StatePrefix + "X") {
		t.Error("live input binding X missing from exported state")
	}
}

func TestMigrationAllocatesContainers(t *testing.T) {
	ip, ad, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	rm := yarn.NewResourceManager(conf.DefaultCluster())
	ad.RM = rm
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	if ip.Stats.Migrations > 0 {
		if rm.AllocatedCount() == 0 {
			t.Error("migration should hold a new container (AM chaining)")
		}
		ad.Release()
		if rm.AllocatedCount() != 0 {
			t.Error("Release should roll in the AM chain")
		}
	}
}

func TestScopeExpandsToOuterLoop(t *testing.T) {
	// A recompiled block inside nested loops must re-optimize a scope that
	// includes the outer loop; we verify indirectly: MLogreg re-optimizes
	// few times (the loop is covered once) rather than per iteration.
	ip, ad, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	// 5 outer x 5 inner iterations would mean dozens of re-optimizations
	// if the scope failed to stabilize the configuration.
	if ad.Stats.Reoptimizations > 12 {
		t.Errorf("re-optimized %d times; scope expansion ineffective", ad.Stats.Reoptimizations)
	}
}

// TestMapScopeResourcesBySource: two leaf blocks that start on one source
// line each take their own scope leaf's MR heap. Matched by first line,
// the loop body kept its old heap and print's leaf took the last scope
// leaf's.
func TestMapScopeResourcesBySource(t *testing.T) {
	src := "i = 0; s = 0;\nwhile (i < 3) { s = s + i; i = i + 1; } print(s);\n"
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp := hop.NewCompiler(hdfs.New(), nil)
	hp, err := comp.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	cc := conf.DefaultCluster()
	res := conf.NewResources(cc.MinHeap(), cc.MinHeap(), hp.NumLeaf)
	ctx := &rt.AdaptContext{Plan: lop.Select(hp, cc, res), Res: res}
	scopeProg, err := comp.RebuildScope(hp.Blocks[1:], hop.SymTab{"i": {}, "s": {}})
	if err != nil {
		t.Fatal(err)
	}
	if hp.NumLeaf != 3 || scopeProg.NumLeaf != 2 {
		t.Fatalf("%d program and %d scope leaves, want 3 and 2", hp.NumLeaf, scopeProg.NumLeaf)
	}
	got := mapScopeResources(ctx, scopeProg, conf.Resources{CP: res.CP, MR: []conf.Bytes{2 * conf.GB, 3 * conf.GB}})
	if want := []conf.Bytes{cc.MinHeap(), 2 * conf.GB, 3 * conf.GB}; !slices.Equal(got.MR, want) {
		t.Errorf("mapped MR %v, want %v", got.MR, want)
	}
}
