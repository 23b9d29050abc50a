package rt

import (
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
)

const parforSrc = `# per-column statistics with independent iterations
X = read($X);
m = ncol(X);
stats = matrix(0, rows=m, cols=1);
parfor (j in 1:8) {
  col = X[, j];
  s = sum(col ^ 2);
  stats[j, 1] = s;
}
write(stats, "/out/stats");
`

func parforSetup(t *testing.T, mode Mode, cores int) (*Interp, *lop.Plan, *hdfs.FS) {
	t.Helper()
	fs := hdfs.New()
	if mode == ModeValue {
		fs.PutMatrix("/data/X", matrix.Random(500, 8, 1.0, -1, 1, 5))
	} else {
		fs.PutDescriptor("/data/X", 1_000_000, 8, 8_000_000, hdfs.BinaryBlock)
	}
	prog, err := dml.Parse(parforSrc)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, parforSrc)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	res.CPCores = cores
	plan := lop.Select(hp, conf.DefaultCluster(), res)
	ip := New(mode, fs, conf.DefaultCluster(), res)
	return ip, plan, fs
}

// TestParforValueSemantics: parfor computes the same values as a
// sequential for.
func TestParforValueSemantics(t *testing.T) {
	ip, plan, fs := parforSetup(t, ModeValue, 4)
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	out, err := fs.Stat("/out/stats")
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against direct computation.
	x, _ := fs.Stat("/data/X")
	for j := 0; j < 8; j++ {
		want := 0.0
		for i := 0; i < x.Data.Rows(); i++ {
			v := x.Data.At(i, j)
			want += v * v
		}
		got := out.Data.At(j, 0)
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("stats[%d] = %v, want %v", j, got, want)
		}
	}
}

// TestParforWallTimeDividesByWorkers: with k cores the parfor loop's
// simulated time shrinks close to 1/k.
func TestParforWallTimeDividesByWorkers(t *testing.T) {
	run := func(cores int) float64 {
		ip, plan, _ := parforSetup(t, ModeSim, cores)
		if err := ip.Run(plan); err != nil {
			t.Fatal(err)
		}
		return ip.SimTime
	}
	t1 := run(1)
	t4 := run(4)
	if t4 >= t1 {
		t.Errorf("4 workers (%.3fs) should beat 1 worker (%.3fs)", t4, t1)
	}
	if t4 > t1/2 {
		t.Errorf("parfor speedup too small: %.3f vs %.3f", t4, t1)
	}
}

// TestParforMatchesCostModel: the cost model's parfor scaling agrees with
// the simulator within a small factor.
func TestParforMatchesCostModel(t *testing.T) {
	ip, plan, _ := parforSetup(t, ModeSim, 4)
	est := cost.NewEstimator(conf.DefaultCluster())
	modeled := est.ProgramCost(plan)
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	ratio := modeled / ip.SimTime
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("model %.3fs vs sim %.3fs: ratio %.2f out of band", modeled, ip.SimTime, ratio)
	}
}

// TestParforBudgetDivision: inside a parfor body the per-worker CP budget
// shrinks, pushing borderline operations to MR.
func TestParforBudgetDivision(t *testing.T) {
	src := `
X = read($X);
acc = matrix(0, rows=4, cols=1);
parfor (j in 1:4) {
  v = rowSums(X ^ 2);
  acc[j, 1] = sum(v);
}
write(acc, "/out/acc");
`
	fs := hdfs.New()
	// 2GB X: X^2 (4GB operation) fits the 5.6GB solo budget but not the
	// per-worker share under 8 concurrent parfor workers.
	fs.PutDescriptor("/data/X", 250_000, 1000, 250_000_000, hdfs.BinaryBlock)
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	cc := conf.DefaultCluster()
	res := conf.NewResources(8*conf.GB, 2*conf.GB, hp.NumLeaf)
	jobs1 := lop.NumMRJobs(lop.Select(hp, cc, res).Blocks)
	res8 := res.Clone()
	res8.CPCores = 8
	jobs8 := lop.NumMRJobs(lop.Select(hp, cc, res8).Blocks)
	if jobs8 <= jobs1 {
		t.Errorf("8 parfor workers should push X ops to MR: %d <= %d jobs", jobs8, jobs1)
	}
}

// TestParforExplain shows parfor blocks in plan explanations.
func TestParforExplain(t *testing.T) {
	_, plan, _ := parforSetup(t, ModeSim, 4)
	out := lop.Explain(plan)
	if !strings.Contains(out, "FOR j") {
		t.Errorf("explain missing parfor loop:\n%s", out)
	}
}

// TestNestedParforRunsOnOneWorker: a parfor loop inside another runs on
// one of the outer loop's single-threaded workers, so at 4 cores it takes
// the simulated time of a plain for loop, as the cost model charges it.
// X is small enough that every operation runs in CP either way.
func TestNestedParforRunsOnOneWorker(t *testing.T) {
	const nested = `X = read($X);
acc = matrix(0, rows=4, cols=4);
parfor (i in 1:4) {
  INNER (j in 1:4) {
    acc[i, j] = sum(X ^ 2) + i + j;
  }
}
write(acc, "/out/acc");
`
	run := func(inner string) (sim, model float64) {
		src := strings.Replace(nested, "INNER", inner, 1)
		fs := hdfs.New()
		fs.PutDescriptor("/data/X", 10_000, 100, 1_000_000, hdfs.BinaryBlock)
		prog, err := dml.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, src)
		if err != nil {
			t.Fatal(err)
		}
		cc := conf.DefaultCluster()
		res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf).WithCores(4)
		plan := lop.Select(hp, cc, res)
		ip := New(ModeSim, fs, cc, res)
		if err := ip.Run(plan); err != nil {
			t.Fatal(err)
		}
		return ip.SimTime, cost.NewEstimator(cc).ProgramCost(plan)
	}
	simPar, modelPar := run("parfor")
	simFor, modelFor := run("for")
	if simPar != simFor || modelPar != modelFor {
		t.Errorf("inner parfor: simulated %v s and modeled %v s; inner for: %v s and %v s", simPar, modelPar, simFor, modelFor)
	}
}
