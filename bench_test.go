package elasticml

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates the corresponding experiment end to end
// (compilation, optimization, simulated execution) at reduced resolution;
// `go run ./cmd/elastic-bench -exp all` prints the full reports.

import (
	"io"
	"testing"

	"elasticml/internal/bench"
	"elasticml/internal/matrix"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := bench.New(io.Discard)
	r.Quick = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(id); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkFigure1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFigure7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFigure15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFigure18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)    { benchExperiment(b, "table6") }
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// BenchmarkDenseMul times a 1000x1000 dense matrix multiply, the number on
// the CP runtime's cache-blocked dense kernel.
func BenchmarkDenseMul(b *testing.B) {
	x := matrix.Random(1000, 1000, 1.0, -1, 1, 7)
	y := matrix.Random(1000, 1000, 1.0, -1, 1, 8)
	b.SetBytes(2 * 1000 * 1000 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.Mul(x, y)
	}
}
