// Package rt implements the runtime of the ML system: an interpreter that
// executes compiled runtime plans over the simulated cluster, with a buffer
// pool of live variables, dynamic recompilation of blocks with initially
// unknown sizes, and hooks for runtime resource adaptation (paper §2.1,
// §4). Two execution modes are supported:
//
//   - ModeValue executes real matrix kernels (small data, full numeric
//     fidelity — data-dependent sizes and convergence behave exactly as on
//     real inputs);
//   - ModeSim propagates only matrix metadata while advancing the
//     simulated clock, enabling the paper's large scenarios (up to 800 GB)
//     without materializing data.
//
// In both modes the interpreter charges simulated time from the analytic
// performance model, including buffer-pool evictions and MR job phases.
package rt

import (
	"fmt"
	"strconv"

	"elasticml/internal/hop"
	"elasticml/internal/matrix"
)

// Mode selects value-level or metadata-level execution.
type Mode int

// Execution modes.
const (
	ModeValue Mode = iota
	ModeSim
)

// Value is a runtime value: a matrix (real or descriptor) or a scalar.
type Value struct {
	// Matrix distinguishes matrix values from scalars/strings.
	Matrix bool
	// Mat holds the real payload in value mode (nil in sim mode).
	Mat *matrix.Matrix
	// Rows/Cols/NNZ describe the matrix in either mode.
	Rows, Cols, NNZ int64
	// Scalar payload; Known is false for sim-mode scalars derived from
	// data (e.g. aggregates over descriptor matrices).
	Scalar float64
	Known  bool
	// String payload.
	Str   string
	IsStr bool
}

// ScalarValue builds a known scalar.
func ScalarValue(v float64) *Value { return &Value{Scalar: v, Known: true} }

// StrValue builds a string value.
func StrValue(s string) *Value { return &Value{Str: s, IsStr: true, Known: true} }

// MatValue wraps a real matrix.
func MatValue(m *matrix.Matrix) *Value {
	return &Value{Matrix: true, Mat: m, Rows: int64(m.Rows()), Cols: int64(m.Cols()), NNZ: m.NNZ()}
}

// Sparsity returns nnz/(rows*cols) with a dense fallback.
func (v *Value) Sparsity() float64 {
	cells := v.Rows * v.Cols
	if cells <= 0 || v.NNZ < 0 {
		return 1
	}
	return float64(v.NNZ) / float64(cells)
}

// Bool interprets the scalar as a truth value.
func (v *Value) Bool() bool { return v.Scalar != 0 }

// Format renders the value for print().
func (v *Value) Format() string {
	switch {
	case v.IsStr:
		return v.Str
	case v.Matrix:
		return fmt.Sprintf("matrix(%dx%d)", v.Rows, v.Cols)
	case !v.Known:
		return "?"
	default:
		return strconv.FormatFloat(v.Scalar, 'g', -1, 64)
	}
}

// meta converts the value into compiler metadata for recompilation.
func (v *Value) meta() hop.VarMeta {
	if v.Matrix {
		return hop.VarMeta{IsMatrix: true, Rows: v.Rows, Cols: v.Cols, NNZ: v.NNZ}
	}
	if v.IsStr {
		return hop.VarMeta{IsStr: true, Str: v.Str}
	}
	return hop.VarMeta{Known: v.Known, Val: v.Scalar}
}
