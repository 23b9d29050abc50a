package opt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/scripts"
)

var update = flag.Bool("update", false, "rewrite testdata/grid.golden")

const goldenGrid = "testdata/grid.golden"

// gridProblem is one program of the paper's evaluation grid.
type gridProblem struct {
	name string
	hp   *hop.Program
}

// compileScenario compiles spec against the scenario's input metadata.
func compileScenario(t testing.TB, spec scripts.Spec, scen datagen.Scenario) *hop.Program {
	t.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, scen)
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("%s %s: %v", spec.Name, scen, err)
	}
	return hp
}

// paperGrid compiles the paper's evaluation grid: every corpus script at
// every size and shape (5 x 5 x 4 = 100 problems).
func paperGrid(t testing.TB) []gridProblem {
	t.Helper()
	var out []gridProblem
	for _, spec := range scripts.All() {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				scen := datagen.New(size, sh.Cols, sh.Sparsity)
				out = append(out, gridProblem{fmt.Sprintf("%s %s %s", spec.Name, size, scen.ShapeName()),
					compileScenario(t, spec, scen)})
			}
		}
	}
	return out
}

// gridLine renders a search result and its effort counters, everything but
// the wall time, as one golden line.
func gridLine(name string, r *Result) string {
	mr := make([]string, len(r.Res.MR))
	for i, v := range r.Res.MR {
		mr[i] = strconv.FormatInt(int64(v), 10)
	}
	s := r.Stats
	return fmt.Sprintf("%s: cp=%d cores=%d mr=[%s] cost=%s compilations=%d costings=%d cp_points=%d mr_points=%d blocks=%d remaining=%d pruned=%d memo_hits=%d",
		name, r.Res.CP, r.Res.CPCores, strings.Join(mr, " "), strconv.FormatFloat(r.Cost, 'g', -1, 64),
		s.BlockCompilations, s.Costings, s.CPPoints, s.MRPoints, s.TotalBlocks, s.RemainingBlocks, s.PrunedBlocks, s.MemoHits)
}

// TestGridGolden pins the fresh sequential search on the whole paper grid:
// the chosen configuration, its cost to the last bit, and the effort
// counters. Regenerate with -update only when a decision is meant to move,
// and read the diff.
func TestGridGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range paperGrid(t) {
		b.WriteString(gridLine(p.name, New(conf.DefaultCluster()).Optimize(p.hp)))
		b.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(goldenGrid, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenGrid)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}

// effort is a result's counters without the wall time.
func effort(r *Result) Stats {
	s := r.Stats
	s.OptTime = 0
	return s
}

// TestSearchPathsMatchFresh: every way of running the grid search — the
// sequential search, also under changed cluster views, the task-parallel
// search and the local optimum under a fixed current CP — returns bit for
// bit what a sequential search that walks every costing (no cost cells)
// returns under the same view, with the same effort counters, on all 100
// problems of the paper grid.
func TestSearchPathsMatchFresh(t *testing.T) {
	grid := paperGrid(t)
	cc := conf.DefaultCluster()
	with := func(cc conf.Cluster, workers int, cores []int) *Optimizer {
		o := New(cc)
		o.Opts.Workers, o.Opts.CPCoreCandidates = workers, cores
		return o
	}
	views := []struct {
		name string
		cc   conf.Cluster
	}{
		{"width-clamped 4GB", WidthClamped(cc, 4*conf.GB)},
		{"one node fewer", func() conf.Cluster { c := cc; c.Nodes--; return c }()},
		{"MaxAlloc halved", func() conf.Cluster { c := cc; c.MaxAlloc /= 2; return c }()},
	}
	currents := map[string][]int{"current": nil, "current-cores124": {1, 2, 4}}

	// The references, before any subtest runs: the switch is global.
	restore := WalkEveryCosting()
	fresh := make([]*Result, len(grid))
	viewFresh := make([][]*Result, len(grid))
	local := map[string][][2]*Result{}
	for i, p := range grid {
		fresh[i] = New(cc).Optimize(p.hp)
		for _, v := range views {
			viewFresh[i] = append(viewFresh[i], New(v.cc).Optimize(p.hp))
		}
		for name, cores := range currents {
			g, l := with(cc, 1, cores).OptimizeWithCurrent(p.hp, 2*conf.GB)
			local[name] = append(local[name], [2]*Result{g, l})
		}
	}
	restore()

	// The rows share the compiled programs: searches only read them.
	for name, workers := range map[string]int{"cells": 1, "workers4": 4} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, p := range grid {
				got := with(cc, workers, nil).Optimize(p.hp)
				sameResult(t, p.name, got, fresh[i])
				if effort(got) != effort(fresh[i]) {
					t.Errorf("%s: effort %+v, want %+v", p.name, effort(got), effort(fresh[i]))
				}
			}
		})
	}

	t.Run("views", func(t *testing.T) {
		t.Parallel()
		for i, p := range grid {
			for k, v := range views {
				got := New(v.cc).Optimize(p.hp)
				sameResult(t, p.name+" "+v.name, got, viewFresh[i][k])
				if effort(got) != effort(viewFresh[i][k]) {
					t.Errorf("%s %s: effort %+v, want %+v", p.name, v.name, effort(got), effort(viewFresh[i][k]))
				}
			}
		}
	})

	for name, cores := range currents {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, p := range grid {
				want := local[name][i]
				for _, workers := range []int{1, 4} {
					gotG, gotL := with(cc, workers, cores).OptimizeWithCurrent(p.hp, 2*conf.GB)
					sameResult(t, fmt.Sprintf("%s global, %d workers", p.name, workers), gotG, want[0])
					sameResult(t, fmt.Sprintf("%s local, %d workers", p.name, workers), gotL, want[1])
				}
			}
		})
	}
}

// TestParallelLocalKeepsCheapestCore: with several CP core counts, the
// task-parallel OptimizeWithCurrent keeps the cheapest configuration at
// the current CP over all core counts, as the sequential search does —
// not the first core count's.
func TestParallelLocalKeepsCheapestCore(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	var locals [2]*Result
	for i, workers := range []int{1, 4} {
		o := New(conf.DefaultCluster())
		o.Opts.Workers, o.Opts.CPCoreCandidates = workers, []int{1, 2, 4}
		_, locals[i] = o.OptimizeWithCurrent(hp, 2*conf.GB)
	}
	sameResult(t, "parallel local", locals[1], locals[0])
	if locals[0].Res.CPCores == 1 {
		t.Errorf("serial local keeps 1 core at %v; the case no longer tells first from cheapest", locals[0].Cost)
	}
}

// TestParallelWorkersExit: the task-parallel search returns a finite
// configuration, keeps its workers' effort, and leaves no worker goroutine
// behind once Optimize returns.
func TestParallelWorkersExit(t *testing.T) {
	hp := compileHP(t, scripts.GLM(), 1_000_000, 1000, 1.0)
	before := runtime.NumGoroutine()
	o := New(conf.DefaultCluster())
	o.Opts.Workers = 4
	res := o.Optimize(hp)
	if math.IsInf(res.Cost, 0) || math.IsNaN(res.Cost) || res.Res.CP <= 0 {
		t.Errorf("parallel search returned %v at cost %v", res.Res, res.Cost)
	}
	if res.Stats.Costings == 0 || res.Stats.BlockCompilations == 0 {
		t.Errorf("worker effort dropped: costings=%d compilations=%d",
			res.Stats.Costings, res.Stats.BlockCompilations)
	}
	// Exited goroutines may take a moment to leave the count.
	for settle := time.Now().Add(2 * time.Second); time.Now().Before(settle); time.Sleep(10 * time.Millisecond) {
		if runtime.NumGoroutine() <= before {
			return
		}
	}
	t.Errorf("goroutine leak: %d before optimize, %d after", before, runtime.NumGoroutine())
}

// TestWhatIfAllocs gates the allocations of one what-if evaluation, a block
// compilation plus its costing, on GLM L dense1000's largest block at the
// minimal heaps, so that a per-call map, DAG walk or key string cannot come
// back unnoticed. The limit is the 16 measured once the variable state
// became slice-backed and reused by the estimator, plus 10 %; string keys
// in a fresh map took 47, and rebuilding the per-call maps 102.
func TestWhatIfAllocs(t *testing.T) {
	hp := compileScenario(t, scripts.GLM(), datagen.New("L", 1000, 1.0))
	var largest *hop.Block
	for _, b := range hp.LeafBlocks() {
		if largest == nil || len(b.Order) > len(largest.Order) {
			largest = b
		}
	}
	cc := conf.DefaultCluster()
	res := conf.NewResources(cc.MinHeap(), cc.MinHeap(), 1)
	est := cost.NewEstimator(cc)
	allocs := testing.AllocsPerRun(10, func() { est.BlockCost(lop.SelectBlock(largest, cc, res, nil), res) })
	const limit = 17
	if allocs > limit {
		t.Errorf("one block compilation and costing of %d hops allocates %v times, limit %d", len(largest.Order), allocs, limit)
	}
}

// TestProgramCostAllocs gates the allocations of costing GLM L dense1000's
// selected plan, whose if blocks each clone the variable state. The limit
// is the 20 measured with slice-backed state, plus 10 %; per-branch map
// clones took 527.
func TestProgramCostAllocs(t *testing.T) {
	hp := compileScenario(t, scripts.GLM(), datagen.New("L", 1000, 1.0))
	cc := conf.DefaultCluster()
	plan := lop.Select(hp, cc, New(cc).Optimize(hp).Res)
	est := cost.NewEstimator(cc)
	allocs := testing.AllocsPerRun(10, func() { est.ProgramCost(plan) })
	const limit = 22
	if allocs > limit {
		t.Errorf("costing the selected plan allocates %v times, limit %d", allocs, limit)
	}
}

// TestGridSearchAllocs gates the allocations of one fresh grid search for
// GLM L dense1000, the BenchmarkGridSearch problem, so that selecting each
// block again at every CP grid point cannot come back unnoticed, and its
// bytes, which set how often the collector runs, so that a search that
// walks every costing again cannot either. The limits are the 1,139
// allocations and 127,150 bytes measured once a CP point's leaf plans
// were collected into a reused buffer, plus 10 %; 1,256 and 139,800 while
// each point allocated them, walking every costing took 1,378 and 207 KB,
// and selecting every baseline and whole-program plan afresh 4,590.
func TestGridSearchAllocs(t *testing.T) {
	hp := compileScenario(t, scripts.GLM(), datagen.New("L", 1000, 1.0))
	cc := conf.DefaultCluster()
	search := func() { New(cc).Optimize(hp) }
	allocs := testing.AllocsPerRun(5, search)
	const limit = 1253
	if allocs > limit {
		t.Errorf("one grid search allocates %v times, limit %d", allocs, limit)
	}
	const runs = 5
	search()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		search()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	const byteLimit = 139_870
	if bytes > byteLimit {
		t.Errorf("one grid search allocates %d bytes, limit %d", bytes, byteLimit)
	}
}

// BenchmarkGridSearch is one grid search for GLM L dense1000: fresh and
// with four workers. It fails unless both searches' effort equals the
// fresh one's, and unless the fresh search walks fewer costings than it
// asks for (walked/op against costings/op): the rest are answered from
// cost cells.
func BenchmarkGridSearch(b *testing.B) {
	var answered atomic.Int64
	defer OnCellAnswer(func(*cost.Estimator, *lop.Block, *lop.Plan, conf.Resources, *cost.Cell, float64) {
		answered.Add(1)
	})()
	hp := compileScenario(b, scripts.GLM(), datagen.New("L", 1000, 1.0))
	cc := conf.DefaultCluster()
	fresh := effort(New(cc).Optimize(hp))
	par := New(cc)
	par.Opts.Workers = 4

	for _, row := range []struct {
		name   string
		search func() *Result
	}{
		{"fresh", func() *Result { return New(cc).Optimize(hp) }},
		{"parallel4", func() *Result { return par.Optimize(hp) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			var costings, compilations int
			answered.Store(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := effort(row.search())
				if s != fresh {
					b.Fatalf("effort %+v, fresh %+v", s, fresh)
				}
				costings += s.Costings
				compilations += s.BlockCompilations
			}
			walked := costings - int(answered.Load())
			if row.name == "fresh" && walked >= costings {
				b.Fatalf("walked %d of %d costings: no cost cell answered", walked, costings)
			}
			perOp := func(n int) float64 { return float64(n) / float64(b.N) }
			b.ReportMetric(perOp(costings), "costings/op")
			b.ReportMetric(perOp(walked), "walked/op")
			b.ReportMetric(perOp(compilations), "block_compilations/op")
		})
	}
}
