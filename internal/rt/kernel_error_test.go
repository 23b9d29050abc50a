package rt

import (
	"errors"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/matrix"
	"elasticml/internal/scripts"
)

// TestEvalRecoversKernelPanic: a plan whose compile-time dimensions
// diverged from the runtime values makes the matrix kernels panic; the
// interpreter boundary must convert that into a typed KernelError instead
// of crashing the process.
func TestEvalRecoversKernelPanic(t *testing.T) {
	fs := hdfs.New()
	res := conf.NewResources(conf.GB, 256*conf.MB, 1)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	ip.Vars["A"] = MatValue(matrix.Random(2, 3, 1.0, -1, 1, 1))
	ip.Vars["B"] = MatValue(matrix.Random(2, 3, 1.0, -1, 1, 2)) // 2x3 x 2x3: mismatched
	a := &hop.Hop{ID: 1, Kind: hop.KindTRead, Name: "A", DataType: hop.Matrix, Pos: 0}
	b := &hop.Hop{ID: 2, Kind: hop.KindTRead, Name: "B", DataType: hop.Matrix, Pos: 1}
	mm := &hop.Hop{ID: 3, Kind: hop.KindMatMul, Inputs: []*hop.Hop{a, b}, DataType: hop.Matrix, Pos: 2}

	v, err := newEnv(ip, []*hop.Hop{a, b, mm}).eval(mm)
	if err == nil {
		t.Fatalf("eval of mismatched matmul succeeded: %v", v)
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("error %v (%T) is not a *KernelError", err, err)
	}
	if !strings.Contains(ke.Detail, "dimension mismatch") {
		t.Errorf("KernelError detail %q does not mention the dimension mismatch", ke.Detail)
	}
	if !strings.Contains(ke.Error(), "kernel failed") {
		t.Errorf("KernelError message %q lacks context", ke.Error())
	}
}

// TestValueRunDeterministicAcrossCores: a full value-mode program must
// produce byte-identical outputs at any CP core count; cores move only
// the charged times and the parfor plan.
func TestValueRunDeterministicAcrossCores(t *testing.T) {
	runWith := func(cores int) *matrix.Matrix {
		beta := []float64{1, -2, 3, 0.5, -1, 2, 0, 1.5, -0.5, 1}
		fs, _ := regressionFS(t, 300, 10, beta)
		res := conf.NewResources(2*conf.GB, 512*conf.MB, 64).WithCores(cores)
		plan := compilePlan(t, scripts.LinregDS(), fs, res)
		ip := New(ModeValue, fs, conf.DefaultCluster(), res)
		if err := ip.Run(plan); err != nil {
			t.Fatalf("run with %d cores: %v", cores, err)
		}
		out, err := fs.Stat("/out/beta")
		if err != nil {
			t.Fatalf("no output written: %v", err)
		}
		return out.Data
	}
	ref := runWith(1)
	for _, cores := range []int{2, 7} {
		got := runWith(cores)
		if !matrix.Equal(got, ref, 0) {
			t.Errorf("output with %d cores differs from single-threaded run", cores)
		}
	}
}
