package rt

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/hdfs"
	"elasticml/internal/matrix"
	"elasticml/internal/scripts"
)

// TestGLMGaussianMatchesDirectSolve: a Gaussian GLM with identity link is
// ordinary least squares, so its IRLS/CG solution must match the
// direct-solve result on the same data — a cross-algorithm consistency
// check through the full compile+execute pipeline.
func TestGLMGaussianMatchesDirectSolve(t *testing.T) {
	beta := []float64{1.5, -0.5, 2, 0.25}
	fs, want := regressionFS(t, 250, 4, beta)

	glm := scripts.GLM()
	glm.Params["vpow"] = float64(0) // gaussian
	glm.Params["link"] = float64(2) // identity
	glm.Params["reg"] = 1e-10
	glm.Params["moi"] = float64(10)
	glm.Params["mii"] = float64(25)
	runValue(t, glm, fs)
	got, err := fs.Stat("/out/beta")
	if err != nil {
		t.Fatalf("no GLM model: %v", err)
	}
	if !matrix.Equal(got.Data, want, 1e-4) {
		t.Errorf("GLM gaussian beta = %v, want %v", got.Data, want)
	}

	// Direct solve on the same inputs agrees.
	ds := scripts.LinregDS()
	ds.Params["reg"] = 1e-10
	ds.Params["B"] = "/out/beta_ds"
	runValue(t, ds, fs)
	dsOut, err := fs.Stat("/out/beta_ds")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got.Data, dsOut.Data, 1e-4) {
		t.Errorf("GLM and DS disagree: %v vs %v", got.Data, dsOut.Data)
	}
}

// TestCGMatchesDSAcrossConfigurations: the same program computes the same
// model regardless of the resource configuration (plans change, semantics
// do not).
func TestCGMatchesDSAcrossConfigurations(t *testing.T) {
	beta := []float64{2, -1, 0.5}
	for i, res := range []conf.Resources{
		conf.NewResources(512*conf.MB, 512*conf.MB, 64),
		conf.NewResources(8*conf.GB, 2*conf.GB, 64),
	} {
		fs, want := regressionFS(t, 200, 3, beta)
		spec := scripts.LinregCG()
		spec.Params["maxi"] = float64(25)
		spec.Params["reg"] = 1e-12
		plan := compilePlan(t, spec, fs, res)
		ip := New(ModeValue, fs, conf.DefaultCluster(), res)
		if err := ip.Run(plan); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		out, err := fs.Stat("/out/beta")
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(out.Data, want, 1e-4) {
			t.Errorf("config %d: beta = %v, want %v", i, out.Data, want)
		}
	}
}

// TestIntercaptPathValueMode: icpt=1 exercises the append branch and still
// recovers the intercept model exactly.
func TestInterceptPathValueMode(t *testing.T) {
	fs := hdfs.New()
	n, m := 300, 3
	x := matrix.Random(n, m, 1.0, -1, 1, 21)
	w := matrix.NewDenseData(m, 1, []float64{1, -2, 0.5})
	icpt := 3.0
	y := matrix.EWScalarRight(matrix.Add, matrix.Mul(x, w), icpt)
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", y)
	spec := scripts.LinregDS()
	spec.Params["icpt"] = float64(1)
	spec.Params["reg"] = float64(0)
	runValue(t, spec, fs)
	out, err := fs.Stat("/out/beta")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != int64(m+1) {
		t.Fatalf("intercept model should have %d rows, got %d", m+1, out.Rows)
	}
	for j := 0; j < m; j++ {
		if d := out.Data.At(j, 0) - w.At(j, 0); d > 1e-8 || d < -1e-8 {
			t.Errorf("beta[%d] = %v, want %v", j, out.Data.At(j, 0), w.At(j, 0))
		}
	}
	if d := out.Data.At(m, 0) - icpt; d > 1e-8 || d < -1e-8 {
		t.Errorf("intercept = %v, want %v", out.Data.At(m, 0), icpt)
	}
}
