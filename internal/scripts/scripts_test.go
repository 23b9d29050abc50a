package scripts

import (
	"reflect"
	"testing"

	"elasticml/internal/dml"
)

func TestAllScriptsParse(t *testing.T) {
	for _, spec := range All() {
		prog, err := dml.Parse(spec.Source)
		if err != nil {
			t.Errorf("%s: parse failed: %v", spec.Name, err)
			continue
		}
		blocks := dml.BuildBlocks(prog.Stmts)
		n := dml.CountBlocks(blocks)
		t.Logf("%s: %d lines, %d blocks, unknowns=%v", spec.Name, prog.Lines, n, spec.HasUnknowns)
		if n < 5 {
			t.Errorf("%s: only %d blocks, scripts should be full-fledged", spec.Name, n)
		}
		if prog.Lines < 40 {
			t.Errorf("%s: only %d lines", spec.Name, prog.Lines)
		}
	}
}

func TestProgramOrder(t *testing.T) {
	want := []string{"LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d programs", len(all))
	}
	for i, s := range all {
		if s.Name != want[i] {
			t.Errorf("program %d = %s, want %s", i, s.Name, want[i])
		}
	}
}

// specSink keeps a built spec reachable, so an allocation count measures
// the spec as a caller that keeps it would build it.
var specSink Spec

// TestByName: every program of All and Minibatch resolves to what its
// constructor builds, an unknown name to nothing, and a lookup allocates
// no more than the constructor alone.
func TestByName(t *testing.T) {
	for _, want := range append(All(), Minibatch()...) {
		if got, ok := ByName(want.Name); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%s) = %v, %v; want its constructor's spec", want.Name, got.Name, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
	byName := testing.AllocsPerRun(100, func() { specSink, _ = ByName("LinregDS") })
	ctor := testing.AllocsPerRun(100, func() { specSink = LinregDS() })
	if byName > ctor {
		t.Errorf("ByName(LinregDS) allocates %v times, LinregDS() %v", byName, ctor)
	}
}

func TestUnknownsFlags(t *testing.T) {
	// Table 1: MLogreg and GLM exhibit unknown dimensions; the others don't.
	for _, s := range All() {
		want := s.Name == "MLogreg" || s.Name == "GLM"
		if s.HasUnknowns != want {
			t.Errorf("%s: HasUnknowns = %v, want %v", s.Name, s.HasUnknowns, want)
		}
	}
}

func TestDefaultParamsComplete(t *testing.T) {
	for _, s := range All() {
		for _, key := range []string{"X", "Y", "B", "icpt", "reg", "tol"} {
			if _, ok := s.Params[key]; !ok {
				t.Errorf("%s: missing default param %q", s.Name, key)
			}
		}
	}
}

func TestGLMIsLargest(t *testing.T) {
	var sizes = map[string]int{}
	for _, s := range All() {
		p, err := dml.Parse(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		sizes[s.Name] = dml.CountBlocks(dml.BuildBlocks(p.Stmts))
	}
	for name, n := range sizes {
		if name != "GLM" && sizes["GLM"] <= n {
			t.Errorf("GLM (%d blocks) should be larger than %s (%d)", sizes["GLM"], name, n)
		}
	}
}
