package rt

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
)

// compilePlan parses and compiles a spec against the given FS.
func compilePlan(t *testing.T, spec scripts.Spec, fs *hdfs.FS, res conf.Resources) *lop.Plan {
	t.Helper()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return lop.Select(hp, conf.DefaultCluster(), res)
}

func runValue(t *testing.T, spec scripts.Spec, fs *hdfs.FS) *Interp {
	t.Helper()
	res := conf.NewResources(2*conf.GB, 512*conf.MB, 64)
	plan := compilePlan(t, spec, fs, res)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	if err := ip.Run(plan); err != nil {
		t.Fatalf("%s run: %v", spec.Name, err)
	}
	return ip
}

func regressionFS(t *testing.T, n, m int, beta []float64) (*hdfs.FS, *matrix.Matrix) {
	t.Helper()
	fs := hdfs.New()
	x := matrix.Random(n, m, 1.0, -1, 1, 42)
	bm := matrix.NewDenseData(m, 1, beta)
	y := matrix.Mul(x, bm)
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", y)
	return fs, bm
}

// TestRunNeedsACompiler: a run recompiles on a Fork of the compiler that
// built its program, over the run's own file system, whatever
// Interp.Compiler held before, so Run refuses a hand-assembled program,
// which no compiler built, before it executes anything.
func TestRunNeedsACompiler(t *testing.T) {
	fs := hdfs.New()
	datagen.Describe(fs, datagen.New("S", 100, 0.01))
	res := conf.NewResources(715_862_835, 2*conf.GB, 64) // recompiles CP-only
	cc := conf.DefaultCluster()
	plan := compilePlan(t, scripts.MLogreg(), fs, res)
	hand := &hop.Program{Blocks: plan.HopProgram.Blocks, NumLeaf: plan.HopProgram.NumLeaf}
	ip := New(ModeSim, fs, cc, res)
	if err := ip.Run(lop.Select(hand, cc, res)); err == nil || ip.Stats.Instructions != 0 {
		t.Fatalf("Run of a hand-assembled program: error %v after %d instructions", err, ip.Stats.Instructions)
	}

	ip = New(ModeSim, fs, cc, res)
	ip.SimTableCols = 20
	preset := hop.NewCompiler(fs, nil)
	preset.Trace = obs.New(false) // counts the preset compiler's recompiles
	ip.Compiler = preset
	if err := ip.Run(plan); err != nil {
		t.Fatalf("Run with a preset compiler that compiled nothing: %v", err)
	}
	if ip.Stats.Recompiles == 0 {
		t.Fatal("the run recompiled no block; the preset compiler went untested")
	}
	if n := preset.Trace.Metrics().Counter("compile.recompiles"); n != 0 {
		t.Errorf("%d recompiles ran on the preset compiler", n)
	}
	if ip.Compiler == preset || ip.Compiler == plan.HopProgram.Compiler() || ip.Compiler.FS != fs {
		t.Error("the run did not recompile on a fork of the program's compiler over its file system")
	}
}

func TestLinregDSRecoversBeta(t *testing.T) {
	beta := []float64{1, -2, 3, 0.5, -1, 2, 0, 1.5, -0.5, 1}
	fs, want := regressionFS(t, 300, 10, beta)
	spec := scripts.LinregDS()
	spec.Params["reg"] = 1e-12 // effectively unregularized for exact recovery
	ip := runValue(t, spec, fs)
	out, err := fs.Stat("/out/beta")
	if err != nil {
		t.Fatalf("no output written: %v", err)
	}
	if !matrix.Equal(out.Data, want, 1e-6) {
		t.Errorf("beta = %v, want %v", out.Data, want)
	}
	if ip.Stats.MRJobs != 0 {
		t.Errorf("small data spawned %d MR jobs", ip.Stats.MRJobs)
	}
	if ip.SimTime <= 0 {
		t.Error("no simulated time charged")
	}
}

func TestLinregCGConverges(t *testing.T) {
	beta := []float64{2, -1, 0.5, 1, -2}
	fs, want := regressionFS(t, 400, 5, beta)
	spec := scripts.LinregCG()
	spec.Params["maxi"] = float64(20)
	spec.Params["reg"] = 1e-12
	runValue(t, spec, fs)
	out, err := fs.Stat("/out/beta")
	if err != nil {
		t.Fatalf("no output: %v", err)
	}
	if !matrix.Equal(out.Data, want, 1e-4) {
		t.Errorf("CG beta = %v, want %v", out.Data, want)
	}
}

func TestL2SVMSeparatesData(t *testing.T) {
	fs := hdfs.New()
	n, m := 200, 4
	x := matrix.Random(n, m, 1.0, -1, 1, 7)
	w := matrix.NewDenseData(m, 1, []float64{1, -1, 2, 0.5})
	score := matrix.Mul(x, w)
	y := matrix.NewDense(n, 1)
	for i := 0; i < n; i++ {
		if score.At(i, 0) > 0 {
			y.Set(i, 0, 1)
		} else {
			y.Set(i, 0, -1)
		}
	}
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", y)
	spec := scripts.L2SVM()
	spec.Params["maxi"] = float64(20)
	var buf bytes.Buffer
	res := conf.NewResources(2*conf.GB, 512*conf.MB, 64)
	plan := compilePlan(t, spec, fs, res)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	ip.Out = &buf
	if err := ip.Run(plan); err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := fs.Stat("/out/beta")
	if err != nil {
		t.Fatalf("no model: %v", err)
	}
	// Learned model must classify most training points correctly.
	pred := matrix.Mul(x, out.Data)
	correct := 0
	for i := 0; i < n; i++ {
		if pred.At(i, 0)*y.At(i, 0) > 0 {
			correct++
		}
	}
	if correct < n*9/10 {
		t.Errorf("L2SVM training accuracy %d/%d too low", correct, n)
	}
	if !strings.Contains(buf.String(), "OBJ=") {
		t.Errorf("expected objective prints, got %q", buf.String())
	}
}

func TestMLogregRunsWithRecompilation(t *testing.T) {
	fs := hdfs.New()
	n, m, k := 300, 6, 3
	x := matrix.Random(n, m, 1.0, -1, 1, 9)
	y := matrix.RandomLabels(n, k, 10)
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y_labels", y)
	spec := scripts.MLogreg()
	ip := runValue(t, spec, fs)
	if ip.Stats.Recompiles == 0 {
		t.Error("MLogreg must trigger dynamic recompilation (unknown k)")
	}
	out, err := fs.Stat("/out/beta")
	if err != nil {
		t.Fatalf("no model: %v", err)
	}
	if out.Rows != int64(m) || out.Cols != int64(k-1) {
		t.Errorf("B dims = %dx%d, want %dx%d", out.Rows, out.Cols, m, k-1)
	}
}

func TestGLMPoissonRuns(t *testing.T) {
	fs := hdfs.New()
	n, m := 300, 5
	x := matrix.Random(n, m, 1.0, -0.5, 0.5, 11)
	w := matrix.NewDenseData(m, 1, []float64{0.5, -0.3, 0.2, 0.1, -0.4})
	eta := matrix.Mul(x, w)
	y := matrix.NewDense(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, math.Round(math.Exp(eta.At(i, 0)))+1)
	}
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", y)
	ip := runValue(t, scripts.GLM(), fs)
	if !fs.Exists("/out/beta") {
		t.Fatal("GLM wrote no model")
	}
	if ip.SimTime <= 0 {
		t.Error("no time charged")
	}
}

func TestSimModeAllScripts(t *testing.T) {
	for _, spec := range scripts.All() {
		n, m := int64(1_000_000), int64(1000) // 8GB dense
		fs := hdfs.New()
		fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
		fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
		fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
		res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
		plan := compilePlan(t, spec, fs, res)
		ip := New(ModeSim, fs, conf.DefaultCluster(), res)
		ip.SimTableCols = 5
		if err := ip.Run(plan); err != nil {
			t.Errorf("%s sim run: %v", spec.Name, err)
			continue
		}
		if ip.SimTime <= 0 {
			t.Errorf("%s: no simulated time", spec.Name)
		}
		if ip.Stats.MRJobs == 0 {
			t.Errorf("%s: expected MR jobs with 512MB CP on 8GB data", spec.Name)
		}
		t.Logf("%s sim: time=%.1fs jobs=%d recompiles=%d",
			spec.Name, ip.SimTime, ip.Stats.MRJobs, ip.Stats.Recompiles)
	}
}

func TestSimModeLargeCPFasterForCG(t *testing.T) {
	run := func(cp conf.Bytes) float64 {
		n, m := int64(1_000_000), int64(1000)
		fs := hdfs.New()
		fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
		fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
		res := conf.NewResources(cp, 2*conf.GB, 64)
		plan := compilePlan(t, scripts.LinregCG(), fs, res)
		ip := New(ModeSim, fs, conf.DefaultCluster(), res)
		if err := ip.Run(plan); err != nil {
			t.Fatalf("sim run: %v", err)
		}
		return ip.SimTime
	}
	small := run(512 * conf.MB)
	large := run(20 * conf.GB)
	if large >= small {
		t.Errorf("CG sim: large CP (%.1fs) should beat small CP (%.1fs)", large, small)
	}
}

func TestAdapterInvoked(t *testing.T) {
	// MLogreg in sim mode with tiny CP: recompilation yields MR jobs and
	// must consult the adapter.
	n, m := int64(1_000_000), int64(100)
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	plan := compilePlan(t, scripts.MLogreg(), fs, res)
	ip := New(ModeSim, fs, conf.DefaultCluster(), res)
	ip.SimTableCols = 200
	calls := 0
	ip.Adapter = adapterFunc(func(ctx *AdaptContext) *AdaptDecision {
		calls++
		if m, ok := ctx.Vars.Meta("X"); !ok || m.Rows != n {
			t.Errorf("adapter sees X as %+v (bound %v), want %d rows", m, ok, n)
		}
		// Migrate to a larger CP.
		return &AdaptDecision{NewRes: conf.NewResources(24*conf.GB, 2*conf.GB, 64),
			Migrate: true, ExtraTime: 3}
	})
	if err := ip.Run(plan); err != nil {
		t.Fatalf("run: %v", err)
	}
	if calls == 0 {
		t.Fatal("adapter never consulted")
	}
	if ip.Stats.Migrations == 0 {
		t.Error("migration not recorded")
	}
	if ip.Res.CP != 24*conf.GB {
		t.Errorf("resources not updated: %v", ip.Res)
	}
}

type adapterFunc func(*AdaptContext) *AdaptDecision

func (f adapterFunc) Adapt(ctx *AdaptContext) *AdaptDecision { return f(ctx) }

func TestStopAborts(t *testing.T) {
	fs := hdfs.New()
	fs.PutMatrix("/data/X", matrix.Random(10, 2, 1, 0, 1, 1))
	src := `
X = read($X);
s = sum(X);
if (s > -1000000) {
  stop("aborted on purpose");
}
print(s);
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	plan := lop.Select(hp, conf.DefaultCluster(), res)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	err = ip.Run(plan)
	if err == nil || !strings.Contains(err.Error(), "aborted on purpose") {
		t.Errorf("expected stop error, got %v", err)
	}
}

func TestControlFlowValueMode(t *testing.T) {
	fs := hdfs.New()
	fs.PutMatrix("/data/X", matrix.Filled(4, 4, 1))
	src := `
X = read($X);
total = 0;
for (i in 1:3) {
  total = total + sum(X) * i;
}
j = 0;
while (j < 4) {
  j = j + 2;
}
if (total > 50) {
  result = total + j;
} else {
  result = 0 - 1;
}
print("RESULT " + result);
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	plan := lop.Select(hp, conf.DefaultCluster(), res)
	var buf bytes.Buffer
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	ip.Out = &buf
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	// total = 16*(1+2+3) = 96; j = 4; result = 100.
	if !strings.Contains(buf.String(), "RESULT 100") {
		t.Errorf("output = %q, want RESULT 100", buf.String())
	}
}

func TestIndexingAndLeftIndexValueMode(t *testing.T) {
	fs := hdfs.New()
	x := matrix.NewDenseData(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	fs.PutMatrix("/data/X", x)
	src := `
X = read($X);
A = X[1:2, 2:3];
B = X;
B[1, 1] = 100;
s = sum(A);
t = B[1, 1];
print("S " + s + " T " + as.scalar(t));
`
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	plan := lop.Select(hp, conf.DefaultCluster(), res)
	var buf bytes.Buffer
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	ip.Out = &buf
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	// A = [[2,3],[5,6]] sum=16; B[1,1]=100.
	if !strings.Contains(buf.String(), "S 16 T 100") {
		t.Errorf("output = %q, want S 16 T 100", buf.String())
	}
}
