// Package datagen generates the evaluation workloads of the paper (§5.1):
// scenarios XS (1e7 cells) through XL (1e11 cells) with 1,000 or 100
// columns and dense (1.0) or sparse (0.01) data. Small scenarios can be
// materialized with real payloads for value-mode execution; large scenarios
// are metadata descriptors for the execution simulator.
package datagen

import (
	"fmt"

	"elasticml/internal/conf"
	"elasticml/internal/hdfs"
	"elasticml/internal/matrix"
)

// Scenario describes one workload configuration.
type Scenario struct {
	// Size is the scenario label: XS, S, M, L or XL.
	Size string
	// Cells is the total cell count (rows = Cells/Cols).
	Cells int64
	// Cols is the feature count (1000 or 100 in the paper).
	Cols int64
	// Sparsity is the non-zero fraction (1.0 dense, 0.01 sparse).
	Sparsity float64
}

// Sizes lists the scenario labels in increasing order.
var Sizes = []string{"XS", "S", "M", "L", "XL"}

// cellsOf maps scenario labels to total cell counts.
var cellsOf = map[string]int64{
	"XS": 1e7, "S": 1e8, "M": 1e9, "L": 1e10, "XL": 1e11,
}

// New builds a scenario from its label, column count and sparsity. The
// label must be valid; command-line entry points validate via Parse.
func New(size string, cols int64, sparsity float64) Scenario {
	s, err := Parse(size, cols, sparsity)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Parse builds a scenario from possibly-invalid user input, returning an
// error instead of panicking on an unknown size label or degenerate
// dimensions.
func Parse(size string, cols int64, sparsity float64) (Scenario, error) {
	cells, ok := cellsOf[size]
	if !ok {
		return Scenario{}, fmt.Errorf("datagen: unknown scenario size %q (want one of %v)", size, Sizes)
	}
	if cols < 1 || cols > cells {
		return Scenario{}, fmt.Errorf("datagen: column count %d out of range for scenario %s", cols, size)
	}
	if !(sparsity > 0 && sparsity <= 1) { // NaN fails both comparisons
		return Scenario{}, fmt.Errorf("datagen: sparsity %g outside (0,1]", sparsity)
	}
	return Scenario{Size: size, Cells: cells, Cols: cols, Sparsity: sparsity}, nil
}

// Rows returns the row count (Cells / Cols).
func (s Scenario) Rows() int64 { return s.Cells / s.Cols }

// NNZ returns the non-zero count of X.
func (s Scenario) NNZ() int64 { return int64(float64(s.Cells) * s.Sparsity) }

// XSize returns the binary size of X.
func (s Scenario) XSize() conf.Bytes {
	return matrix.EstimateSize(s.Rows(), s.Cols, s.Sparsity)
}

// ShapeName renders the data shape, e.g. "dense1000" or "sparse100".
func (s Scenario) ShapeName() string {
	kind := "dense"
	if s.Sparsity < 1.0 {
		kind = "sparse"
	}
	return fmt.Sprintf("%s%d", kind, s.Cols)
}

func (s Scenario) String() string {
	return fmt.Sprintf("%s %s (%d x %d, %v)", s.Size, s.ShapeName(), s.Rows(), s.Cols, s.XSize())
}

// Shapes returns the four data shapes of Figures 7-11 in the paper's order:
// dense1000, sparse1000, dense100, sparse100.
func Shapes() []struct {
	Cols     int64
	Sparsity float64
} {
	return []struct {
		Cols     int64
		Sparsity float64
	}{
		{1000, 1.0}, {1000, 0.01}, {100, 1.0}, {100, 0.01},
	}
}

// Paths used by the evaluation scripts.
const (
	PathX      = "/data/X"
	PathY      = "/data/y"
	PathLabels = "/data/y_labels"
)

// Describe registers the scenario's input files as metadata descriptors on
// the file system (sim-mode execution): X, a continuous response y, and a
// categorical label vector for the classification programs.
func Describe(fs *hdfs.FS, s Scenario) {
	fs.PutDescriptor(PathX, s.Rows(), s.Cols, s.NNZ(), hdfs.BinaryBlock)
	fs.PutDescriptor(PathY, s.Rows(), 1, s.Rows(), hdfs.BinaryBlock)
	fs.PutDescriptor(PathLabels, s.Rows(), 1, s.Rows(), hdfs.BinaryBlock)
}

// maxRealCells bounds value-mode materialization.
const maxRealCells = 4e7

// Materialize generates real payload matrices for value-mode execution:
// X with the scenario's sparsity, y = X beta + noise-free response, and
// integer class labels in [1, classes]. It fails for scenarios larger than
// the value-mode bound.
func Materialize(fs *hdfs.FS, s Scenario, classes int, seed int64) error {
	if s.Cells > maxRealCells {
		return fmt.Errorf("datagen: scenario %s too large for value mode (%d cells)", s.Size, s.Cells)
	}
	n, m := int(s.Rows()), int(s.Cols)
	x := matrix.Random(n, m, s.Sparsity, -1, 1, seed)
	beta := matrix.Random(m, 1, 1.0, -1, 1, seed+1)
	y := matrix.Mul(x, beta)
	fs.PutMatrix(PathX, x)
	fs.PutMatrix(PathY, y)
	if classes < 2 {
		classes = 2
	}
	fs.PutMatrix(PathLabels, matrix.RandomLabels(n, classes, seed+2))
	return nil
}
