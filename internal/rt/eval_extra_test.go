package rt

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
)

// runSrc compiles and value-executes a small script, returning print output.
func runSrc(t *testing.T, src string, files map[string]*matrix.Matrix) (*hdfs.FS, string) {
	t.Helper()
	fs := hdfs.New()
	params := map[string]interface{}{}
	for name, m := range files {
		path := "/data/" + name
		fs.PutMatrix(path, m)
		params[name] = path
	}
	prog, err := dml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, params).Compile(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
	ip := New(ModeValue, fs, conf.DefaultCluster(), res)
	var buf bytes.Buffer
	ip.Out = &buf
	if err := ip.Run(lop.Select(hp, conf.DefaultCluster(), res)); err != nil {
		t.Fatal(err)
	}
	return fs, buf.String()
}

func TestEvalTransposeDiagAndUnaries(t *testing.T) {
	a := matrix.NewDenseData(2, 3, []float64{1, -4, 9, 16, 25, 0})
	src := `
A = read($A);
B = t(A);
d = diag(rowSums(A));
back = diag(d);
u = floor(2.7) + ceil(2.2) + round(2.5);
print("TB " + sum(B) + " D " + trace(d) + " BACK " + sum(back) + " U " + u);
`
	_, out := runSrc(t, src, map[string]*matrix.Matrix{"A": a})
	// sum(B)=47, trace(diag(rowSums))=6+41=47, sum(back)=47, u=2+3+3=8.
	if !strings.Contains(out, "TB 47 D 47 BACK 47 U 8") {
		t.Errorf("output = %q", out)
	}
}

func TestEvalMeanTraceRowMaxs(t *testing.T) {
	a := matrix.NewDenseData(2, 2, []float64{1, 5, 3, 2})
	src := `
A = read($A);
print("MEAN " + mean(A) + " TRACE " + trace(A) + " RM " + sum(rowMaxs(A)) + " CS " + sum(colSums(A)));
`
	_, out := runSrc(t, src, map[string]*matrix.Matrix{"A": a})
	if !strings.Contains(out, "MEAN 2.75 TRACE 3 RM 8 CS 11") {
		t.Errorf("output = %q", out)
	}
}

func TestEvalRBindAndMinMax(t *testing.T) {
	a := matrix.NewDenseData(1, 2, []float64{1, 2})
	src := `
A = read($A);
B = rbind(A, A * 10);
print("R " + nrow(B) + " MIN " + min(B) + " MAX " + max(B) + " MM " + min(3, max(B)));
`
	_, out := runSrc(t, src, map[string]*matrix.Matrix{"A": a})
	if !strings.Contains(out, "R 2 MIN 1 MAX 20 MM 3") {
		t.Errorf("output = %q", out)
	}
}

func TestEvalTernaryAndSeq(t *testing.T) {
	src := `
a = seq(1, 4, 1);
b = seq(4, 1, 0 - 1);
s = sum(a * b);
s3 = sum(a * b * a);
print("S " + s + " S3 " + s3);
`
	// s = 4+6+6+4 = 20; s3 = 1*4*1 + 2*3*2 + 3*2*3 + 4*1*4 = 4+12+18+16=50.
	_, out := runSrc(t, src, map[string]*matrix.Matrix{})
	if !strings.Contains(out, "S 20 S3 50") {
		t.Errorf("output = %q", out)
	}
}

func TestEvalStringFormatting(t *testing.T) {
	src := `
x = 1 / 3;
m = matrix(0, rows=2, cols=2);
print("X " + x);
print(m);
`
	_, out := runSrc(t, src, map[string]*matrix.Matrix{})
	if !strings.Contains(out, "X 0.3333333333333333") {
		t.Errorf("float formatting: %q", out)
	}
	if !strings.Contains(out, "matrix(2x2)") {
		t.Errorf("matrix formatting: %q", out)
	}
}

// TestStringVariableCrossesBlocks: a string bound in one block keeps its
// value in the blocks that read it later, directly or through a copy; the
// transient write used to publish it as "", so the loop wrote to "".
func TestStringVariableCrossesBlocks(t *testing.T) {
	a := matrix.NewDenseData(2, 2, []float64{1, 2, 3, 4})
	for _, src := range []string{
		`A = read($A); p = "/out/res"; for (i in 1:2) { B = A * i; write(B, p); }`,
		`A = read($A); q = "/out/res"; if (sum(A) > 0) { print("split"); } p = q; for (i in 1:2) { B = A * i; write(B, p); }`,
	} {
		fs, _ := runSrc(t, src, map[string]*matrix.Matrix{"A": a})
		if got, want := fs.List(), []string{"/data/A", "/out/res"}; !slices.Equal(got, want) {
			t.Errorf("%s\nwrites files %q, want %q", src, got, want)
		}
	}
}

func TestSimModeUnknownScalarFormatting(t *testing.T) {
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1000, 10, 10000, hdfs.BinaryBlock)
	src := `
X = read($X);
s = sum(X);
print("S " + s);
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
	ip := New(ModeSim, fs, conf.DefaultCluster(), res)
	var buf bytes.Buffer
	ip.Out = &buf
	if err := ip.Run(lop.Select(hp, conf.DefaultCluster(), res)); err != nil {
		t.Fatal(err)
	}
	// Data-dependent scalars print as "?" in sim mode.
	if !strings.Contains(buf.String(), "S ?") {
		t.Errorf("sim print = %q", buf.String())
	}
}
