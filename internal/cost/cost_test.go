package cost

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/scripts"
)

// TestSplitsOf: a file takes one map task per started DFS block, and at
// least one.
func TestSplitsOf(t *testing.T) {
	for _, c := range []struct {
		size, block conf.Bytes
		want        int
	}{
		{8e9, 128 * conf.MB, 60}, // ceil(8e9 / 128MiB): the 8 GB dense scenario
		{800, 128 * conf.MB, 1},  // a tiny file is one split
		{800, 0, 1},              // no block size: one split
	} {
		if got := splitsOf(c.size, c.block); got != c.want {
			t.Errorf("splitsOf(%v, %v) = %d, want %d", c.size, c.block, got, c.want)
		}
	}
}

func planFor(t *testing.T, spec scripts.Spec, n, m int64, sparsity float64, res conf.Resources) *lop.Plan {
	t.Helper()
	fs := hdfs.New()
	nnz := int64(float64(n*m) * sparsity)
	fs.PutDescriptor("/data/X", n, m, nnz, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := hop.NewCompiler(fs, spec.Params)
	hp, err := c.Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return lop.Select(hp, conf.DefaultCluster(), res)
}

func TestCGPrefersLargeCP(t *testing.T) {
	cc := conf.DefaultCluster()
	e := NewEstimator(cc)
	n, m := int64(1_000_000), int64(1000) // 8GB dense
	smallCP := e.ProgramCost(planFor(t, scripts.LinregCG(), n, m, 1.0,
		conf.NewResources(512*conf.MB, 2*conf.GB, 64)))
	largeCP := e.ProgramCost(planFor(t, scripts.LinregCG(), n, m, 1.0,
		conf.NewResources(20*conf.GB, 2*conf.GB, 64)))
	if largeCP >= smallCP {
		t.Errorf("CG: large CP (%.1fs) should beat small CP (%.1fs)", largeCP, smallCP)
	}
}

func TestDSPrefersDistributed(t *testing.T) {
	cc := conf.DefaultCluster()
	e := NewEstimator(cc)
	n, m := int64(1_000_000), int64(1000) // 8GB dense, compute-intensive
	smallCP := e.ProgramCost(planFor(t, scripts.LinregDS(), n, m, 1.0,
		conf.NewResources(512*conf.MB, 2*conf.GB, 64)))
	largeCP := e.ProgramCost(planFor(t, scripts.LinregDS(), n, m, 1.0,
		conf.NewResources(conf.BytesOfGB(53.3), 2*conf.GB, 64)))
	if smallCP >= largeCP {
		t.Errorf("DS dense1000: distributed (%.1fs) should beat single node (%.1fs)", smallCP, largeCP)
	}
}

func TestSmallDataPrefersCP(t *testing.T) {
	cc := conf.DefaultCluster()
	e := NewEstimator(cc)
	n, m := int64(10_000), int64(1000) // 80MB: MR latency dominates
	mrPlan := e.ProgramCost(planFor(t, scripts.LinregDS(), n, m, 1.0,
		conf.NewResources(conf.MB*64, 512*conf.MB, 64)))
	cpPlan := e.ProgramCost(planFor(t, scripts.LinregDS(), n, m, 1.0,
		conf.NewResources(2*conf.GB, 512*conf.MB, 64)))
	if cpPlan >= mrPlan {
		t.Errorf("XS data: CP plan (%.1fs) should beat MR plan (%.1fs)", cpPlan, mrPlan)
	}
}

func TestDeterminism(t *testing.T) {
	cc := conf.DefaultCluster()
	res := conf.NewResources(2*conf.GB, 2*conf.GB, 64)
	p := planFor(t, scripts.L2SVM(), 100_000, 1000, 1.0, res)
	e := NewEstimator(cc)
	a := e.ProgramCost(p)
	b := e.ProgramCost(p)
	if a != b {
		t.Errorf("cost not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Errorf("cost should be positive, got %v", a)
	}
}

func TestInvocationCounting(t *testing.T) {
	cc := conf.DefaultCluster()
	res := conf.NewResources(2*conf.GB, 2*conf.GB, 64)
	p := planFor(t, scripts.LinregDS(), 10_000, 100, 1.0, res)
	e := NewEstimator(cc)
	e.ProgramCost(p)
	e.BlockCost(p.Blocks[0], res)
	if e.Invocations != 2 {
		t.Errorf("Invocations = %d, want 2", e.Invocations)
	}
}

func TestEvictionChargingIncreasesCost(t *testing.T) {
	cc := conf.DefaultCluster()
	// 4GB X with a CP heap of 8GB (5.6GB budget): iterating CG pins X plus
	// intermediates, exceeding the budget and causing evictions.
	n, m := int64(500_000), int64(1000)
	res := conf.NewResources(8*conf.GB, 2*conf.GB, 64)
	p := planFor(t, scripts.LinregCG(), n, m, 1.0, res)
	plain := NewEstimator(cc)
	plain.EvictionWeight = 0
	charged := NewEstimator(cc)
	charged.EvictionWeight = 1.0
	a := plain.ProgramCost(p)
	b := charged.ProgramCost(p)
	if b < a {
		t.Errorf("eviction charging reduced cost: %v < %v", b, a)
	}
}

func TestLoopScaling(t *testing.T) {
	cc := conf.DefaultCluster()
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 100_000, 100, 100_000*100, hdfs.BinaryBlock)
	src := `
X = read($X);
acc = matrix(0, rows=100, cols=1);
for (i in 1:5) {
  acc = acc + t(X) %*% rowSums(X);
}
write(acc, "/out/acc");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	p := lop.Select(hp, cc, res)
	e := NewEstimator(cc)
	total := e.ProgramCost(p)
	// The loop body reads X once (~80MB/150MBps ~ 0.53s) and then iterates
	// in memory; total must be far below 5 full reads.
	fullRead := 5 * float64(100_000*100*8) / 150e6
	if total >= fullRead {
		t.Errorf("loop cost %v should be below %v (X cached across iterations)", total, fullRead)
	}
}

func TestFlopsFormulas(t *testing.T) {
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1000, 100, 1000*100, hdfs.BinaryBlock)
	src := `
X = read($X);
A = t(X) %*% X;
beta = solve(A, t(X) %*% rowSums(X));
write(beta, "/out/b");
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	var tsmmF, solveF float64
	hop.WalkBlocks(hp.Blocks, func(b *hop.Block) {
		hop.WalkDAG(b.Roots, func(h *hop.Hop) {
			if h.Kind == hop.KindMatMul && h.Rows == 100 && h.Cols == 100 {
				tsmmF = Flops(h)
			}
			if h.Kind == hop.KindSolve {
				solveF = Flops(h)
			}
		})
	})
	// TSMM: 2*100*1000*100/2 = 1e7.
	if tsmmF != 1e7 {
		t.Errorf("TSMM flops = %v, want 1e7", tsmmF)
	}
	// solve on 100x100: (2/3)*1e6 + 2*1e4*1.
	want := (2.0/3.0)*1e6 + 2*1e4
	if solveF != want {
		t.Errorf("solve flops = %v, want %v", solveF, want)
	}
}

// vk is the state key of the variable name.
func vk(name string) Key { return Key{Kind: KeyVar, Name: name} }

func TestVarStateTransitions(t *testing.T) {
	s := NewVarState(0)
	// First use reads from HDFS; second is cached.
	if got := s.EnsureInMemory(vk("X"), 1000); got != 1000 {
		t.Errorf("first read = %v, want 1000", got)
	}
	if got := s.EnsureInMemory(vk("X"), 1000); got != 0 {
		t.Errorf("cached read = %v, want 0", got)
	}
	// CP-produced values are dirty and must be exported once.
	s.PutInMemory(vk("Y"), 500)
	if got := s.ExportBytes(vk("Y"), 500); got != 500 {
		t.Errorf("export = %v, want 500", got)
	}
	if got := s.ExportBytes(vk("Y"), 500); got != 0 {
		t.Errorf("re-export = %v, want 0", got)
	}
	// MR-produced values live on HDFS.
	s.PutOnHDFS(vk("Z"), 700)
	if s.InMemory(vk("Z")) {
		t.Error("Z should be on HDFS")
	}
	if got := s.ExportBytes(vk("Z"), 700); got != 0 {
		t.Errorf("HDFS-resident export = %v, want 0", got)
	}
}

func TestVarStateEviction(t *testing.T) {
	s := NewVarState(1000)
	s.PutInMemory(vk("A"), 600)
	s.PutInMemory(vk("B"), 600) // exceeds 1000: A (LRU, dirty) evicted
	if s.InMemory(vk("A")) {
		t.Error("A should have been evicted")
	}
	if !s.InMemory(vk("B")) {
		t.Error("B should be resident")
	}
	if s.EvictionIO() != 600 {
		t.Errorf("eviction IO = %v, want 600 (dirty A written)", s.EvictionIO())
	}
	// Clean pages evict silently.
	s2 := NewVarState(1000)
	s2.EnsureInMemory(vk("A"), 600) // clean (from HDFS)
	s2.PutInMemory(vk("B"), 600)
	if s2.EvictionIO() != 0 {
		t.Errorf("clean eviction IO = %v, want 0", s2.EvictionIO())
	}
	// A single oversized variable stays pinned.
	s3 := NewVarState(100)
	s3.PutInMemory(vk("big"), 500)
	if !s3.InMemory(vk("big")) {
		t.Error("oversized single variable should stay pinned")
	}
}

func TestVarStateClone(t *testing.T) {
	s := NewVarState(0)
	s.PutInMemory(vk("A"), 100)
	c := s.Clone()
	c.PutOnHDFS(vk("A"), 100)
	if !s.InMemory(vk("A")) {
		t.Error("clone mutation leaked into original")
	}
}

// TestVarStateCloneKeepsAliases: two names bound by Alias share one storage
// entry, and Clone must keep them sharing it. A per-name copy turns them
// into two residents that inMem counts twice and that the LRU scan picks
// between in map order.
func TestVarStateCloneKeepsAliases(t *testing.T) {
	s := NewVarState(0)
	s.PutInMemory(vk("A"), 100)
	s.Alias(vk("B"), vk("A"), 100)
	c := s.Clone()
	c.PutOnHDFS(vk("A"), 100) // rebinds A only; B keeps the shared entry
	if !s.InMemory(vk("A")) || !s.InMemory(vk("B")) {
		t.Error("clone mutation leaked into original")
	}
	c = s.Clone()
	if got := c.ExportBytes(vk("A"), 100); got != 100 {
		t.Fatalf("export through A = %v, want 100", got)
	}
	if got := c.ExportBytes(vk("B"), 100); got != 0 {
		t.Errorf("export through alias B = %v after exporting A, want 0 (one shared entry)", got)
	}
	if got := s.ExportBytes(vk("B"), 100); got != 100 {
		t.Errorf("original lost its dirty state to the clone: export = %v, want 100", got)
	}
	// Evicting the shared entry evicts it under both names.
	p := NewVarState(150)
	p.PutInMemory(vk("A"), 100)
	p.Alias(vk("B"), vk("A"), 100)
	pc := p.Clone()
	pc.PutInMemory(vk("C"), 100)
	if pc.Evictions != 1 || pc.InMemory(vk("A")) || pc.InMemory(vk("B")) {
		t.Errorf("clone split the aliased resident: evictions %d, A resident %v, B resident %v",
			pc.Evictions, pc.InMemory(vk("A")), pc.InMemory(vk("B")))
	}
}

// TestProgramCostAliasInBranchDeterministic: GLM on the XL dense 100-column
// scenario at the optimizer's own choice (largest CP heap, smallest MR heap)
// aliases a variable that its if-branches then evict around; with per-name
// clones the same plan cost 46685.2 s or 46845.2 s from call to call.
func TestProgramCostAliasInBranchDeterministic(t *testing.T) {
	cc := conf.DefaultCluster()
	plan := planFor(t, scripts.GLM(), 1e9, 100, 1.0, conf.NewResources(cc.MaxHeap(), cc.MinHeap(), 64))
	first := NewEstimator(cc).ProgramCost(plan)
	for i := 1; i < 60; i++ {
		if got := NewEstimator(cc).ProgramCost(plan); got != first {
			t.Fatalf("call %d costs %.1f s, call 0 cost %.1f s", i, got, first)
		}
	}
}

func TestVarStatePeakAndMaxVar(t *testing.T) {
	s := NewVarState(1000)
	s.PutInMemory(vk("A"), 600)
	s.PutInMemory(vk("B"), 600) // evicts A; steady-state residency 600
	if s.Peak != 600 {
		t.Errorf("peak = %v, want 600 (post-eviction steady state)", s.Peak)
	}
	if s.MaxVar != 600 {
		t.Errorf("max var = %v, want 600", s.MaxVar)
	}
	// An oversized variable pins: the peak may exceed the budget, but only
	// up to the largest single admitted variable (the capacity invariant
	// the verification harness checks).
	s.PutInMemory(vk("big"), 2500)
	if s.Peak != 2500 {
		t.Errorf("peak = %v, want 2500 (pinned oversize variable)", s.Peak)
	}
	if s.MaxVar != 2500 {
		t.Errorf("max var = %v, want 2500", s.MaxVar)
	}
	max := s.MaxVar
	if budget := conf.Bytes(1000); s.Peak > budget && s.Peak > max {
		t.Errorf("capacity invariant violated: peak %v > max(budget %v, maxvar %v)", s.Peak, budget, max)
	}
	c := s.Clone()
	if c.Peak != s.Peak || c.MaxVar != s.MaxVar {
		t.Errorf("clone lost high-water marks: peak %v/%v maxvar %v/%v", c.Peak, s.Peak, c.MaxVar, s.MaxVar)
	}
}
