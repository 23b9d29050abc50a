package verify

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/matrix"
)

func TestULPDist(t *testing.T) {
	next := math.Nextafter(1, 2)
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1, 1, 0},
		{0, 0, 0},
		{math.Copysign(0, -1), 0, 0}, // -0 == +0
		{1, next, 1},
		{next, 1, 1},
		{1, 2, 1 << 52},
		{-1, -math.Nextafter(1, 2), 1},
		{math.NaN(), math.NaN(), 0},
		{math.NaN(), 1, math.MaxUint64},
		{1, math.NaN(), math.MaxUint64},
	}
	for _, c := range cases {
		if got := ulpDist(c.a, c.b); got != c.want {
			t.Errorf("ulpDist(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// The ordered-bits transform must be monotone across the sign change.
	if d := ulpDist(-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64); d > 4 {
		t.Errorf("sign-straddling denormals %d ULP apart, want a small distance", d)
	}
}

func TestCloseRel(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 1 + 1e-7, true},
		{1, 1.1, false},
		{1e12, 1e12 + 1, true}, // relative scale
		{0, 1e-7, true},        // absolute floor at scale 1
		{0, 1e-5, false},
		{math.NaN(), math.NaN(), true},
		{math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := closeRel(c.a, c.b); got != c.want {
			t.Errorf("closeRel(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFuzzProgramsDeterministicAndParse(t *testing.T) {
	for i := 0; i < 40; i++ {
		a, b := FuzzProgram(7, i), FuzzProgram(7, i)
		if a.Source != b.Source {
			t.Fatalf("fuzz program %d differs across generations for the same seed", i)
		}
		if _, err := dml.Parse(a.Source); err != nil {
			t.Errorf("fuzz program %d does not parse: %v\n%s", i, err, a.Source)
		}
	}
	if FuzzProgram(7, 0).Source == FuzzProgram(8, 0).Source {
		t.Error("different seeds produced identical programs")
	}
}

func TestRunProgramDeterministic(t *testing.T) {
	p := Corpus()[0] // LinregDS
	a := RunProgram(p, Options{})
	b := RunProgram(p, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of %s produced different reports:\n%+v\nvs\n%+v", p.Name, a, b)
	}
	if f := a.Findings; len(f) > 0 {
		t.Errorf("%s: %d fatal findings, first: %s", p.Name, len(f), f[0])
	}
	if a.Outputs == 0 {
		t.Errorf("%s: no persistent outputs compared", p.Name)
	}
	if a.Ops == 0 {
		t.Errorf("%s: auditor observed no kernel invocations", p.Name)
	}
}

func TestFuzzProgramsClean(t *testing.T) {
	for i := 0; i < 3; i++ {
		p := FuzzProgram(1, i)
		r := RunProgram(p, Options{})
		if f := r.Findings; len(f) > 0 {
			t.Errorf("%s: %d fatal findings, first: %s\n%s", p.Name, len(f), f[0], p.Source)
		}
	}
}

func TestReferenceKnownValues(t *testing.T) {
	// A program with hand-computable outputs exercises the reference
	// interpreter directly: Z = (2*ones(2x3))' %*% ones(2x3) is the 3x3
	// matrix of all 4s, and s = sum(Z) = 36.
	src := `
A = matrix(2, rows=2, cols=3);
B = matrix(1, rows=2, cols=3);
Z = t(A) %*% B;
s = sum(Z);
write(Z, "/out/Z");
print(s);
`
	fs := hdfs.New()
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, nil).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(hp, fs)
	if err != nil {
		t.Fatal(err)
	}
	z, ok := ref.Writes["/out/Z"]
	if !ok {
		t.Fatalf("reference wrote %v, want /out/Z", ref.Writes)
	}
	if z.rows != 3 || z.cols != 3 {
		t.Fatalf("Z is %dx%d, want 3x3", z.rows, z.cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := z.at(i, j); got != 4 {
				t.Errorf("Z[%d,%d] = %v, want 4", i, j, got)
			}
		}
	}
	if len(ref.Prints) != 1 || ref.Prints[0] != "36" {
		t.Errorf("prints = %v, want [36]", ref.Prints)
	}
	// The full harness agrees: the same program runs clean under every
	// configuration and against this reference.
	r := RunProgram(Program{Name: "known-values", Source: src}, Options{})
	if f := r.Findings; len(f) > 0 {
		t.Errorf("harness disagrees on known-value program: %s", f[0])
	}
}

func TestAuditorFlagsViolations(t *testing.T) {
	aud := &auditor{program: "p", config: "c"}
	out := matrix.Filled(10, 10, 1.5) // 800 B of payload + header
	in := matrix.Filled(10, 10, 2.5)
	sz := out.InMemorySize()

	// Sound estimates produce no findings.
	aud.hook(&hop.Hop{Kind: hop.KindBinary, OutMem: sz, OpMem: sz * 3}, []*matrix.Matrix{in}, out)
	if len(aud.findings) != 0 {
		t.Fatalf("sound estimates flagged: %v", aud.findings)
	}

	// An OutMem estimate below the materialized size is a violation; so is
	// an OpMem below output+operands.
	aud.hook(&hop.Hop{Kind: hop.KindBinary, OutMem: sz - 1, OpMem: sz - 1}, []*matrix.Matrix{in}, out)
	if len(aud.findings) != 2 {
		t.Fatalf("%d findings, want 2 (OutMem and OpMem)", len(aud.findings))
	}
	for _, f := range aud.findings {
		if f.Kind != EstimateViolation {
			t.Errorf("finding kind %s, want %s", f.Kind, EstimateViolation)
		}
		if f.Actual <= f.Estimate {
			t.Errorf("finding actual %d <= estimate %d", f.Actual, f.Estimate)
		}
	}

	// Infinite estimates (unknown sizes at compile time) are waived.
	n := len(aud.findings)
	inf := conf.Bytes(1) << 60
	if !hop.InfiniteMem(inf) {
		t.Fatal("test constant is not the infinite-estimate sentinel")
	}
	aud.hook(&hop.Hop{Kind: hop.KindBinary, OutMem: inf, OpMem: inf}, []*matrix.Matrix{in}, out)
	if len(aud.findings) != n {
		t.Error("infinite estimates must not be audited")
	}
	if aud.ops != 3 {
		t.Errorf("auditor counted %d ops, want 3", aud.ops)
	}
}

func TestCompareRunsDetectsMismatch(t *testing.T) {
	mk := func(cfg string, v float64, prints string) *runOutput {
		m := matrix.Filled(2, 2, 1)
		m.Set(1, 1, v)
		return &runOutput{
			cfg:     cfg,
			paths:   []string{"/out/Z"},
			outputs: map[string]*matrix.Matrix{"/out/Z": m},
			prints:  prints,
		}
	}
	res := ProgramResult{Program: "p"}
	exact := func(a, b float64) bool {
		d := ulpDist(a, b)
		res.MaxULP = max(res.MaxULP, d)
		return d == 0
	}
	compare(&res, CrossConfigMismatch, mk("a", 1, "x\n1\n"), mk("b", 1, "x\n1\n"), exact)
	if len(res.Findings) != 0 {
		t.Fatalf("identical runs flagged: %v", res.Findings)
	}
	compare(&res, CrossConfigMismatch, mk("a", 1, ""), mk("b", math.Nextafter(1, 2), ""), exact)
	if len(res.Findings) != 1 || res.Findings[0].Kind != CrossConfigMismatch || res.Findings[0].Where != "/out/Z[2,2]" {
		t.Fatalf("1-ULP drift: findings %v", res.Findings)
	}
	if res.MaxULP != 1 {
		t.Errorf("max ULP %d, want 1", res.MaxULP)
	}

	// Against the reference, cells and numeric print lines agree within
	// refTol; text lines and the line count must match exactly.
	res = ProgramResult{Program: "p"}
	compare(&res, ReferenceMismatch, mk("a", 1, "s\ns=0.1 x=0\n"), mk("reference", 1+1e-9, "s\ns=0.1000000001 x=-0\n"), closeRel)
	if len(res.Findings) != 0 {
		t.Fatalf("values within refTol flagged: %v", res.Findings)
	}
	compare(&res, ReferenceMismatch, mk("a", 1, "s\n0.1\n"), mk("reference", 1, "t\n0.2\n"), closeRel)
	var where []string
	for _, f := range res.Findings {
		if f.Kind != ReferenceMismatch || f.Config != "a vs reference" {
			t.Errorf("finding %s, want a reference mismatch of a vs reference", f)
		}
		where = append(where, f.Where)
	}
	if want := []string{"print line 1", "print line 2"}; !reflect.DeepEqual(where, want) {
		t.Errorf("print mismatches at %v, want %v", where, want)
	}
	res.Findings = nil
	compare(&res, ReferenceMismatch, mk("a", 1, "1\n"), mk("reference", 1, "1\n1\n"), closeRel)
	if len(res.Findings) != 1 || res.Findings[0].Where != "print stream" {
		t.Errorf("a missing print line: findings %v", res.Findings)
	}
}

// TestRunProgramBuildsOnce: the harness stages, parses and compiles a
// program once and runs every configuration and the reference off that
// one build, which none of them changes.
func TestRunProgramBuildsOnce(t *testing.T) {
	for _, p := range []Program{Corpus()[0], FuzzLoopProgram(1, 0)} {
		calls, setup := 0, p.Setup
		p.Setup = func(fs *hdfs.FS) {
			calls++
			setup(fs)
		}
		r := RunProgram(p, Options{})
		if calls != 1 {
			t.Errorf("%s: Setup ran %d times, want 1", p.Name, calls)
		}
		if len(r.Configs) != len(DefaultConfigs()) || len(r.Findings) > 0 || r.Outputs == 0 {
			t.Errorf("%s: configs %v, %d outputs, findings %v", p.Name, r.Configs, r.Outputs, r.Findings)
		}
	}
}

// TestRunProgramBuildErrors: a program that fails to stage, parse or
// compile is one run error per configuration, and nothing else.
func TestRunProgramBuildErrors(t *testing.T) {
	for _, c := range []struct {
		p      Program
		detail string // the error's prefix
	}{
		{Program{Name: "parse", Source: "x = ;"}, "parse: "},
		{Program{Name: "compile", Source: "x = nosuchfn(1);\nprint(x);"}, "compile: "},
		{Program{Name: "setup", Source: "print(1);", Setup: func(*hdfs.FS) { panic("staging failed") }}, "panic: "},
	} {
		r := RunProgram(c.p, Options{})
		if len(r.Findings) != len(DefaultConfigs()) {
			t.Fatalf("%s: %d findings, want one per configuration: %v", c.p.Name, len(r.Findings), r.Findings)
		}
		for i, f := range r.Findings {
			if f.Kind != RunError || f.Config != r.Configs[i] || !strings.HasPrefix(f.Detail, c.detail) {
				t.Errorf("%s: finding %s, want a run error of %s starting %q", c.p.Name, f, r.Configs[i], c.detail)
			}
		}
	}
}

func TestDefaultConfigsForcePlanDiversity(t *testing.T) {
	cfgs := DefaultConfigs()
	if len(cfgs) < 4 {
		t.Fatalf("%d configurations, want at least 4", len(cfgs))
	}
	var tiny, multi, faulty, optimized bool
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Errorf("duplicate configuration name %q", c.Name)
		}
		names[c.Name] = true
		if c.CP <= 64*conf.KB {
			tiny = true
		}
		if c.Cores > 1 {
			multi = true
		}
		if c.Faults.Enabled() {
			faulty = true
		}
		if c.Optimize {
			optimized = true
		}
	}
	if !tiny {
		t.Error("no configuration with a tiny CP heap (CP-MR flip coverage)")
	}
	if !multi {
		t.Error("no multi-core configuration")
	}
	if !faulty {
		t.Error("no fault-injecting configuration")
	}
	if !optimized {
		t.Error("no optimizer-picked configuration")
	}
}

// TestZeroTripLoopKeepsEntryFacts: a loop that runs no iteration leaves
// the facts it entered with, so the compile must not take the body's
// facts for the loop's exit. Here Z is X (80x8) after the loop, while the
// body would make it 2x8; building W = t(Z) %*% Z on the body's facts
// underestimates the memory of three of its operations, up to 40x, in
// each of the six configurations (18 estimate violations).
func TestZeroTripLoopKeepsEntryFacts(t *testing.T) {
	for _, loop := range []string{"while (sum(X) < -1e6)", "for (i in 1:0)"} {
		p := Program{Name: loop, Params: map[string]interface{}{"X": "/data/X"}, Setup: regressionSetup(42),
			Source: "X = read($X);\nZ = X;\n" + loop + " {\n  Z = X[1:2,];\n}\nW = t(Z) %*% Z;\nwrite(W, \"/out/W\");\n"}
		r := RunProgram(p, Options{})
		if r.Outputs == 0 {
			t.Errorf("%s: no output compared", loop)
		}
		if len(r.Findings) > 0 {
			t.Errorf("%s: %d findings, first: %s", loop, len(r.Findings), r.Findings[0])
		}
	}
}

// TestNestedLoopFactsSettle: a loop nested in another settles its facts
// inside the outer loop's trial as it does on its own. Here the inner
// loop's first trip leaves a = 2x8 as it entered, and only its second
// makes a = X (80x8). A nested loop that stopped after its first join
// would let the outer loop keep a = 2x8 and build t(a) %*% a on it, 18
// estimate violations of up to 40x across the six configurations.
func TestNestedLoopFactsSettle(t *testing.T) {
	p := Program{Name: "nested loop", Params: map[string]interface{}{"X": "/data/X"}, Setup: regressionSetup(42),
		Source: "X = read($X);\na = X[1:2,];\nb = a;\nfor (i in 1:2) {\n  c = t(a) %*% a;\n" +
			"  for (j in 1:2) {\n    a = b;\n    b = X;\n  }\n}\nwrite(c, \"/out/c\");\n"}
	r := RunProgram(p, Options{})
	if r.Outputs == 0 {
		t.Error("no output compared")
	}
	if len(r.Findings) > 0 {
		t.Errorf("%d findings, first: %s", len(r.Findings), r.Findings[0])
	}
}
