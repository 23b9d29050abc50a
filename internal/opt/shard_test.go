package opt

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

// compileTestProgram compiles a real script against synthetic metadata,
// mirroring what the workload service feeds the optimizer.
func compileTestProgram(t *testing.T, spec scripts.Spec) *hop.Program {
	t.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, datagen.New("XS", 1000, 1.0))
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	return hp
}

func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got %v, want %v)", name, got, want)
	}
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v != %v", name, got.Cost, want.Cost)
	}
	if got.Res.CP != want.Res.CP || got.Res.CPCores != want.Res.CPCores || len(got.Res.MR) != len(want.Res.MR) {
		t.Fatalf("%s: res %v != %v", name, got.Res, want.Res)
	}
	for i := range got.Res.MR {
		if got.Res.MR[i] != want.Res.MR[i] {
			t.Errorf("%s: MR[%d] %v != %v", name, i, got.Res.MR[i], want.Res.MR[i])
		}
	}
}

// TestOptimizeMemoMatchesOptimize: the memo names the benchmark still
// calls are inert: a search through a store's memo returns the plain
// search's result and effort, and the memo counts nothing.
func TestOptimizeMemoMatchesOptimize(t *testing.T) {
	spec := scripts.LinregDS()
	hp := compileTestProgram(t, spec)
	o := New(conf.DefaultCluster())
	o.Opts.Points = 5
	m := NewMemoStore(0).Get(MemoKey(spec.Source, spec.Params, nil, o.Opts))
	got, want := o.OptimizeMemo(hp, m), o.Optimize(hp)
	sameResult(t, "memo", got, want)
	if effort(got) != effort(want) {
		t.Errorf("effort %+v, want %+v", effort(got), effort(want))
	}
	if s := m.Stats(); s != (MemoStats{}) || got.Stats.ReuseHits != 0 {
		t.Errorf("memo stats %+v and %d reuse hits, want none", s, got.Stats.ReuseHits)
	}
}
