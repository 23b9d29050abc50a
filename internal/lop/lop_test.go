package lop

import (
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

func compile(t *testing.T, spec scripts.Spec, n, m int64, res conf.Resources) *Plan {
	t.Helper()
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
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
	return Select(hp, conf.DefaultCluster(), res)
}

func physOps(p *Plan) map[PhysicalOp]int {
	out := map[PhysicalOp]int{}
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrMR {
				for _, op := range in.Job.Ops {
					out[op.Phys]++
				}
			}
		}
	}
	return out
}

func TestLargeCPMemoryAllInCP(t *testing.T) {
	// Scenario M (8GB X) with 53.3GB CP: everything fits in memory.
	res := conf.NewResources(conf.BytesOfGB(53.3), 512*conf.MB, 64)
	p := compile(t, scripts.LinregCG(), 1_000_000, 1000, res)
	if n := NumMRJobs(p.Blocks); n != 0 {
		t.Errorf("large CP: %d MR jobs, want 0", n)
	}
}

func TestSmallCPMemoryForcesMR(t *testing.T) {
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	p := compile(t, scripts.LinregCG(), 1_000_000, 1000, res)
	if n := NumMRJobs(p.Blocks); n == 0 {
		t.Error("small CP: expected MR jobs for 8GB input")
	}
	ops := physOps(p)
	// The CG core t(X)(Xp) must fuse into a MapMMChain.
	if ops[PhysMapMMChain] == 0 {
		t.Errorf("expected MapMMChain, got ops %v", ops)
	}
}

func TestTSMMSelected(t *testing.T) {
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	p := compile(t, scripts.LinregDS(), 1_000_000, 1000, res)
	ops := physOps(p)
	if ops[PhysTSMM] == 0 {
		t.Errorf("LinregDS on MR should use TSMM, got %v", ops)
	}
}

func TestMapMMBroadcastBudget(t *testing.T) {
	// X (n x 1000, 8GB) %*% W (1000 x 2000, 16MB): W fits a 2GB task budget
	// => MapMM. With a minimum task budget W (16MB) still fits, so shrink
	// further via a custom huge W to force shuffle.
	src := `
X = read($X);
W = read($W);
R = X %*% W;
write(R, "/out/R");
`
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1_000_000, 1000, 1_000_000*1000, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/W", 1000, 2000, 1000*2000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X", "W": "/data/W"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	cc := conf.DefaultCluster()
	p := Select(hp, cc, conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf))
	ops := physOps(p)
	if ops[PhysMapMM] == 0 {
		t.Errorf("16MB operand should broadcast: %v", ops)
	}

	// Huge W (8GB) cannot broadcast into a 2GB task: shuffle-based MM.
	fs2 := hdfs.New()
	fs2.PutDescriptor("/data/X", 1_000_000, 1000, 1_000_000*1000, hdfs.BinaryBlock)
	fs2.PutDescriptor("/data/W", 1000, 1_000_000, 1000*1_000_000, hdfs.BinaryBlock)
	c2 := hop.NewCompiler(fs2, map[string]interface{}{"X": "/data/X", "W": "/data/W"})
	hp2, err := c2.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	p2 := Select(hp2, cc, conf.NewResources(512*conf.MB, 2*conf.GB, hp2.NumLeaf))
	ops2 := physOps(p2)
	if ops2[PhysCPMM] == 0 {
		t.Errorf("8GB operand should force shuffle MM: %v", ops2)
	}
}

func TestPiggybackingPacksMapOnlyOps(t *testing.T) {
	// Several map-only ops over the same X should share one job.
	src := `
X = read($X);
A = X * 2;
B = abs(A);
C = B + 0.5;
s = sum(C);
print(s);
`
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1_000_000, 1000, 1_000_000*1000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	p := Select(hp, conf.DefaultCluster(), conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf))
	jobs := NumMRJobs(p.Blocks)
	if jobs != 1 {
		t.Errorf("map-only pipeline should pack into 1 job, got %d", jobs)
	}
	ops := physOps(p)
	total := 0
	for _, n := range ops {
		total += n
	}
	if total < 4 {
		t.Errorf("expected >=4 packed ops, got %v", ops)
	}
}

func TestBigIntermediateBinaryShuffles(t *testing.T) {
	// Regression for the matrix-scalar nnz estimate: X * 2 over a dense X
	// is as large as X itself, so a binary joining two such intermediates
	// must not pretend one side is broadcastable (the old scalar-operand
	// nnz rule estimated it at zero non-zeros, an unsound lower bound that
	// packed an 8GB broadcast into a 2GB task).
	src := `
X = read($X);
A = X * 2;
B = abs(X);
C = A + B;
s = sum(C);
print(s);
`
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1_000_000, 1000, 1_000_000*1000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	p := Select(hp, conf.DefaultCluster(), conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf))
	ops := physOps(p)
	if ops[PhysShuffleBinary] == 0 {
		t.Errorf("two 8GB operands must shuffle, not broadcast: %v", ops)
	}
	if ops[PhysMapBinary] != 0 {
		t.Errorf("no binary over 8GB intermediates may broadcast: %v", ops)
	}
}

func TestShuffleBoundaryBreaksJob(t *testing.T) {
	// A transpose (shuffle) followed by consumption of its output must
	// split jobs.
	src := `
X = read($X);
Y = t(X);
Z = Y * 2;
s = sum(Z);
print(s);
`
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1_000_000, 1000, 1_000_000*1000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"})
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	p := Select(hp, conf.DefaultCluster(), conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf))
	if jobs := NumMRJobs(p.Blocks); jobs < 2 {
		t.Errorf("shuffle output consumption needs >=2 jobs, got %d", jobs)
	}
}

func TestScanSharingMemoryConstraint(t *testing.T) {
	// Two matrix-vector products over X: both vectors must fit together in
	// mapper memory to share one job (the paper's §3.3.2 example).
	src := `
X = read($X);
v = read($V);
w = read($W);
a = X %*% v;
b = X %*% w;
s = sum(a) + sum(b);
print(s);
`
	n := int64(2_000_000)
	m := int64(1000)
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/V", m, 120_000, m*120_000, hdfs.BinaryBlock) // ~0.96GB each
	fs.PutDescriptor("/data/W", m, 120_000, m*120_000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]interface{}{"X": "/data/X", "V": "/data/V", "W": "/data/W"}
	c := hop.NewCompiler(fs, params)
	hp, err := c.Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	cc := conf.DefaultCluster()
	// 3GB task budget (0.7*4.3GB): both ~0.96GB broadcasts fit => 1 job.
	big := Select(hp, cc, conf.NewResources(512*conf.MB, conf.BytesOfGB(4.3), hp.NumLeaf))
	// 1.5GB task budget (0.7*2.2GB ~ 1.54GB): only one fits => 2 jobs.
	small := Select(hp, cc, conf.NewResources(512*conf.MB, conf.BytesOfGB(2.2), hp.NumLeaf))
	bigJobs, smallJobs := NumMRJobs(big.Blocks), NumMRJobs(small.Blocks)
	if bigJobs >= smallJobs {
		t.Errorf("scan sharing: %d jobs with big tasks should be < %d with small tasks",
			bigJobs, smallJobs)
	}
}

func TestSolveAlwaysCP(t *testing.T) {
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	p := compile(t, scripts.LinregDS(), 1_000_000, 1000, res)
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrMR {
				for _, op := range in.Job.Ops {
					if op.Hop.Kind == hop.KindSolve {
						t.Error("solve must stay in CP")
					}
				}
			}
		}
	}
}

func TestRecompileFlagPropagates(t *testing.T) {
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	p := compile(t, scripts.MLogreg(), 100_000, 100, res)
	n := 0
	for _, b := range p.Blocks {
		if b.HopBlock.Recompile {
			n++
		}
	}
	if n == 0 {
		t.Error("MLogreg plan should carry recompile flags")
	}
}

func TestJobNamesReadable(t *testing.T) {
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	p := compile(t, scripts.LinregDS(), 1_000_000, 1000, res)
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrMR {
				if in.Job.Name() == "GMR()" {
					t.Error("empty job name")
				}
			}
		}
	}
}

// TestUnlinearizedBlockPanics: a generic block built outside the compiler
// has roots but no Order; selection names the bug instead of selecting an
// empty plan.
func TestUnlinearizedBlockPanics(t *testing.T) {
	hb := &hop.Block{Kind: dml.GenericBlock, FirstLine: 3, LastLine: 4,
		Roots: []*hop.Hop{{Kind: hop.KindPrint, DataType: hop.Scalar}}}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "no linearized order") {
			t.Errorf("recovered %q, want the unlinearized-block panic", r)
		}
	}()
	SelectBlock(hb, conf.DefaultCluster(), conf.NewResources(512*conf.MB, 512*conf.MB, 1), nil)
}
