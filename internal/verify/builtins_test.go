package verify

import (
	"fmt"
	"strings"
	"testing"

	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/matrix"
)

// TestCompilerAcceptsOnlyWhatRuns compiles a one-line program for every
// callable unary builtin, every binary operator (infix and as ppred's
// operator argument) and every aggregate, and runs each through the
// differential harness: all six configurations plus the reference
// interpreter. A program the compiler accepts must run without a fatal
// finding; the names no kernel implements must fail to compile instead —
// or, for the infix %% and %/%, which the lexer does not read, to parse.
func TestCompilerAcceptsOnlyWhatRuns(t *testing.T) {
	type probe struct {
		expr   string
		scalar bool // written as a 1x1 matrix
		reject bool // the parser or the compiler must refuse it
	}
	var probes []probe
	mat := func(exprs ...string) {
		for _, e := range exprs {
			probes = append(probes, probe{expr: e})
		}
	}
	scal := func(exprs ...string) {
		for _, e := range exprs {
			probes = append(probes, probe{expr: e, scalar: true})
		}
	}
	// x and y are cells of the inputs, known only at run time, so the
	// scalar kernels run instead of the compiler's constant folding.
	const x, y = "as.scalar(X[1,2])", "as.scalar(Y[2,1])"
	for _, f := range []string{"abs", "exp", "round", "floor", "ceil", "sign"} {
		mat(f + "(X)")
		scal(f + "(" + x + ")")
	}
	mat("sqrt(abs(X))", "log(abs(X) + 1)", "-X", "!X", "X ^ 2", "X * X")
	scal("sqrt(abs("+x+"))", "log(abs("+x+") + 1)", "-"+x, "!("+x+")")
	for op := matrix.Add; op <= matrix.Or; op++ {
		name := op.String()
		if op == matrix.Min2 || op == matrix.Max2 {
			mat(name+"(X, Y)", name+"(X, "+y+")")
			scal(name + "(" + x + ", " + y + ")")
		} else {
			mat("X "+name+" Y", "X "+name+" "+y, x+" "+name+" Y")
			scal(x + " " + name + " " + y)
		}
		mat(fmt.Sprintf("ppred(X, Y, %q)", name))
	}
	mat("rowSums(X)", "colSums(X)", "rowMaxs(X)")
	for _, f := range []string{"sum", "mean", "min", "max", "trace", "nrow", "ncol"} {
		scal(f + "(X)")
	}
	scal("sum(X * Y)", "sum(X * Y * X)")
	for _, e := range []string{"rowMeans(X)", "colMeans(X)", "colMaxs(X)", "X %% Y", "X %/% Y", `ppred(X, Y, "%%")`} {
		probes = append(probes, probe{expr: e, reject: true})
	}

	setup := func(fs *hdfs.FS) {
		fs.PutMatrix("/in/X", matrix.Random(6, 4, 0.25, -2, 2, 11).Compact())
		fs.PutMatrix("/in/Y", matrix.Random(6, 4, 0.6, -2, 2, 12).Compact())
	}
	for i, pr := range probes {
		out := "R"
		if pr.scalar {
			out = "matrix(R, rows=1, cols=1)"
		}
		src := fmt.Sprintf("X = read(\"/in/X\")\nY = read(\"/in/Y\")\nR = %s\nwrite(%s, \"/out/R\")\n", pr.expr, out)
		p := Program{Name: fmt.Sprintf("probe-%d %s", i, pr.expr), Source: src, Setup: setup}
		fs := hdfs.New()
		setup(fs)
		prog, err := dml.Parse(src)
		if err != nil {
			if !pr.reject {
				t.Fatalf("%s: parse: %v", pr.expr, err)
			}
			continue
		}
		if _, err := hop.NewCompiler(fs, nil).Compile(prog, src); err != nil {
			if !pr.reject {
				t.Errorf("%s: compile: %v", pr.expr, err)
			}
			continue
		}
		if pr.reject {
			t.Errorf("%s compiles, but no kernel runs it", pr.expr)
		}
		res := RunProgram(p, Options{})
		for _, f := range res.Fatals() {
			t.Errorf("%s: %s", pr.expr, strings.ReplaceAll(f.String(), "\n", " "))
		}
	}
}
