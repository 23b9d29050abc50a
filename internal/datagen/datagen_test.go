package datagen

import (
	"math"
	"strings"
	"testing"

	"elasticml/internal/hdfs"
	"elasticml/internal/matrix"
)

func TestParseValid(t *testing.T) {
	s, err := Parse("M", 1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cells != 1e9 || s.Rows() != 1_000_000 || s.Cols != 1000 {
		t.Errorf("scenario M: cells=%d rows=%d cols=%d", s.Cells, s.Rows(), s.Cols)
	}
	if s.NNZ() != 1e7 {
		t.Errorf("nnz = %d, want 1e7 (1%% of 1e9)", s.NNZ())
	}
	if s.ShapeName() != "sparse1000" {
		t.Errorf("shape = %q, want sparse1000", s.ShapeName())
	}
	if dense, _ := Parse("XS", 100, 1.0); dense.ShapeName() != "dense100" {
		t.Errorf("shape = %q, want dense100", dense.ShapeName())
	}
	if got := s.XSize(); got != matrix.EstimateSize(s.Rows(), s.Cols, 0.01) {
		t.Errorf("XSize = %v", got)
	}
	if str := s.String(); !strings.Contains(str, "M sparse1000") {
		t.Errorf("String() = %q", str)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		size     string
		cols     int64
		sparsity float64
	}{
		{"XXL", 1000, 1.0},  // unknown label
		{"m", 1000, 1.0},    // labels are case-sensitive (callers upper-case)
		{"XS", 0, 1.0},      // degenerate columns
		{"XS", -5, 1.0},     // negative columns
		{"XS", 2e7, 1.0},    // more columns than cells
		{"XS", 1000, 0},     // zero sparsity
		{"XS", 1000, -0.5},  // negative sparsity
		{"XS", 1000, 1.001}, // sparsity above 1
		{"XS", 1000, math.NaN()},
		{"XS", 1000, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := Parse(c.size, c.cols, c.sparsity); err == nil {
			t.Errorf("Parse(%q, %d, %g): expected error", c.size, c.cols, c.sparsity)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with an unknown label must panic")
		}
	}()
	New("XXL", 1000, 1.0)
}

func TestSizesCoverAllLabels(t *testing.T) {
	prev := int64(0)
	for _, label := range Sizes {
		s, err := Parse(label, 100, 1.0)
		if err != nil {
			t.Fatalf("label %s: %v", label, err)
		}
		if s.Cells <= prev {
			t.Errorf("label %s: cells %d not increasing", label, s.Cells)
		}
		prev = s.Cells
	}
	if shapes := Shapes(); len(shapes) != 4 || shapes[0].Cols != 1000 || shapes[3].Sparsity != 0.01 {
		t.Errorf("Shapes() = %v, want the paper's four shapes", Shapes())
	}
}

func TestDescribeRegistersDescriptors(t *testing.T) {
	fs := hdfs.New()
	s := New("S", 100, 1.0)
	Describe(fs, s)
	for _, path := range []string{PathX, PathY, PathLabels} {
		f, err := fs.Stat(path)
		if err != nil {
			t.Fatalf("stat %s: %v", path, err)
		}
		if f.Rows != s.Rows() {
			t.Errorf("%s rows = %d, want %d", path, f.Rows, s.Rows())
		}
		if f.Data != nil {
			t.Errorf("%s: descriptor should carry no payload", path)
		}
	}
	if f, _ := fs.Stat(PathX); f.Cols != 100 || f.NNZ != s.NNZ() {
		t.Errorf("X descriptor %dx%d nnz %d", f.Rows, f.Cols, f.NNZ)
	}
}

func TestMaterializeDeterministicAndConsistent(t *testing.T) {
	s := New("XS", 100, 0.5) // 1e7 cells: within the value-mode bound
	mk := func() *hdfs.FS {
		fs := hdfs.New()
		if err := Materialize(fs, s, 3, 42); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := mk(), mk()
	for _, path := range []string{PathX, PathY, PathLabels} {
		fa, err := a.Stat(path)
		if err != nil {
			t.Fatalf("stat %s: %v", path, err)
		}
		fb, _ := b.Stat(path)
		if fa.Data == nil || fb.Data == nil {
			t.Fatalf("%s: materialized file has no payload", path)
		}
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols || fa.Data.NNZ() != fb.Data.NNZ() {
			t.Fatalf("%s differs across same-seed materializations", path)
		}
		for i := 0; i < int(fa.Rows); i += 997 {
			for j := 0; j < int(fa.Cols); j++ {
				if fa.Data.At(i, j) != fb.Data.At(i, j) {
					t.Fatalf("%s[%d,%d] differs across same-seed materializations", path, i, j)
				}
			}
		}
	}
	x, _ := a.Stat(PathX)
	if x.Rows != s.Rows() || x.Cols != s.Cols {
		t.Errorf("X is %dx%d, want %dx%d", x.Rows, x.Cols, s.Rows(), s.Cols)
	}
	// Requested sparsity is approximate (Bernoulli per cell) but must be
	// in the right neighborhood.
	frac := float64(x.Data.NNZ()) / float64(s.Cells)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("materialized sparsity %.3f, want ~0.5", frac)
	}
	// Labels are integers in [1, classes].
	lab, _ := a.Stat(PathLabels)
	for i := 0; i < int(lab.Rows); i += 1009 {
		v := lab.Data.At(i, 0)
		if v < 1 || v > 3 || v != float64(int64(v)) {
			t.Fatalf("label[%d] = %v, want an integer in [1,3]", i, v)
		}
	}
}

func TestMaterializeRejectsLargeScenarios(t *testing.T) {
	if err := Materialize(hdfs.New(), New("M", 1000, 1.0), 2, 1); err == nil {
		t.Error("scenario M (1e9 cells) must be rejected in value mode")
	}
}
