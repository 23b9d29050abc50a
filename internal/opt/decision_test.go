package opt_test

import (
	"fmt"
	"math"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/verify"
)

// decisionEps is the relative slack R* gets against the baselines, as in
// TestOptimizerBeatsOrMatchesBaselines.
const decisionEps = 0.05

// decisionRows are the row counts a generated program's inputs are bound
// at: small enough for CP alone, and large enough for MR jobs.
var decisionRows = []int64{1e4, 1e6, 1e7}

// bindInputs compiles p with every input it stages bound as a descriptor
// of the given row count, keeping the input's column count, sparsity and
// format. The grammar writes some dimensions as literals, so a program
// may not type-check at another row count; the compiler then refuses it.
func bindInputs(p verify.Program, rows int64) (*hop.Program, error) {
	staged := hdfs.New()
	p.Setup(staged)
	fs := hdfs.New()
	for _, name := range staged.List() {
		f, err := staged.Stat(name)
		if err != nil {
			return nil, err
		}
		nnz := int64(math.Round(f.Sparsity() * float64(rows) * float64(f.Cols)))
		fs.PutDescriptor(name, rows, f.Cols, nnz, f.Format)
	}
	prog, err := dml.Parse(p.Source)
	if err != nil {
		return nil, err
	}
	return hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
}

// decision checks Definition 1's invariants on one compiled problem:
//   - the sequential search, the 4-worker search and a search that walks
//     every costing return the same R* at a bit-identical cost;
//   - every answer a cost cell gives is exact at both ends of its span
//     (cells, the oracle OnCellAnswer feeds);
//   - cost(R*) is at most the cheapest of the four static baselines
//     × (1 + decisionEps) (item 1 of ROADMAP.md).
//
// It returns the third as loss, for the caller to gate, and reports
// without failing an R* that costs more than a baseline within the slack,
// and every configuration strictly smaller than R* in one dimension of
// the grid that costs within decisionEps of it: Definition 1 prefers the
// minimal resources among the cheapest, which no search enforces yet.
func decision(t testing.TB, name string, hp *hop.Program, cells *opt.CellOracle) (loss string, report []string) {
	t.Helper()
	cc := conf.DefaultCluster()
	restore := opt.WalkEveryCosting()
	walked := opt.New(cc).Optimize(hp)
	restore()

	cells.Problem = name
	seq := opt.New(cc).Optimize(hp)
	par := opt.New(cc)
	par.Opts.Workers = 4
	for path, got := range map[string]*opt.Result{"sequential": seq, "4 workers": par.Optimize(hp)} {
		if d := sameDecision(got, walked); d != "" {
			t.Errorf("%s: the %s search and the one that walks every costing differ: %s", name, path, d)
		}
	}

	costAt := func(res conf.Resources) float64 {
		return cost.NewEstimator(cc).ProgramCost(lop.Select(hp, cc, res))
	}
	small, large := cc.MinHeap(), cc.MaxHeap()
	task := conf.BytesOfGB(4.4)
	minBase := math.Inf(1)
	for _, b := range [][2]conf.Bytes{{small, small}, {large, small}, {small, task}, {large, task}} {
		minBase = min(minBase, costAt(conf.NewResources(b[0], b[1], hp.NumLeaf)))
	}
	if seq.Cost > minBase*(1+decisionEps) {
		loss = fmt.Sprintf("%s: R* %s costs %v, %.4f× the cheapest baseline %v", name, seq.Res.Detailed(), seq.Cost, seq.Cost/minBase, minBase)
	} else if seq.Cost > minBase {
		report = append(report, fmt.Sprintf("%s: R* %s costs %.4f× the cheapest baseline", name, seq.Res.Detailed(), seq.Cost/minBase))
	}

	tie := func(res conf.Resources) {
		if c := costAt(res); c <= seq.Cost*(1+decisionEps) {
			report = append(report, fmt.Sprintf("%s: the smaller %s costs %.4f× R* %s", name, res.Detailed(), c/seq.Cost, seq.Res.Detailed()))
		}
	}
	grid := opt.EnumGridPoints(hp, cc, opt.GridHybrid, 15)
	for _, cp := range grid {
		if cp < seq.Res.CP {
			res := seq.Res.Clone()
			res.CP = cp
			tie(res)
		}
	}
	for _, mr := range grid {
		res, smaller := seq.Res.Clone(), false
		for i, m := range res.MR {
			if mr < m {
				res.MR[i], smaller = mr, true
			}
		}
		if smaller {
			tie(res)
		}
	}
	return loss, report
}

// sameDecision describes how got differs from want in R* or the cost's
// bits, or returns "".
func sameDecision(got, want *opt.Result) string {
	if got == nil || want == nil {
		return fmt.Sprintf("results %v and %v", got, want)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Sprintf("cost %v against %v", got.Cost, want.Cost)
	}
	if !got.Res.Equal(want.Res) || got.Res.CPCores != want.Res.CPCores {
		return fmt.Sprintf("R* %s against %s", got.Res.Detailed(), want.Res.Detailed())
	}
	return ""
}

// TestDecisionOracle runs the decision oracle over the streams `make
// verify-corpus` runs — the first 25 programs of verify's fuzz stream and
// 10 of its loop stream, seed 1 — each bound at every decisionRows.
func TestDecisionOracle(t *testing.T) {
	var ps []verify.Program
	for i := 0; i < 25; i++ {
		ps = append(ps, verify.FuzzProgram(1, i))
	}
	for i := 0; i < 10; i++ {
		ps = append(ps, verify.FuzzLoopProgram(1, i))
	}
	cells := &opt.CellOracle{}
	defer opt.OnCellAnswer(cells.Check)()
	var report []string
	for _, p := range ps {
		for _, rows := range decisionRows {
			name := fmt.Sprintf("%s at %d rows", p.Name, rows)
			hp, err := bindInputs(p, rows)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			loss, r := decision(t, name, hp, cells)
			if loss != "" {
				t.Error(loss)
			}
			report = append(report, r...)
		}
	}
	cells.Report(t)
	for _, line := range report {
		t.Log(line)
	}
	t.Logf("%d problems, %d reported", len(ps)*len(decisionRows), len(report))
}

// FuzzDecision runs the decision oracle on a program generated from the
// fuzzer's bytes, as FuzzDifferential runs the differential harness, at
// each row count the program type-checks at. It gates the search paths
// and the cells, and only logs a loss to the baselines: generated
// programs find R* losing by more than the slack (testdata/fuzz holds
// one at 1.19×), which is item 1 of ROADMAP.md to mend.
func FuzzDecision(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		p := verify.BytesProgram(b)
		cells := &opt.CellOracle{}
		restore := opt.OnCellAnswer(cells.Check)
		defer restore()
		for _, rows := range decisionRows {
			if hp, err := bindInputs(p, rows); err == nil {
				if loss, _ := decision(t, fmt.Sprintf("%s at %d rows", p.Name, rows), hp, cells); loss != "" {
					t.Log(loss)
				}
			}
		}
		for _, f := range cells.Failures {
			t.Error(f)
		}
		if t.Failed() {
			t.Logf("program:\n%s", p.Source)
		}
	})
}
