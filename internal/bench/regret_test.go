package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

const goldenRegret = "testdata/regret.golden"

// Regret settings: the label cardinality every problem runs at, the
// adapter's fixed charge per re-optimization, the base point count of the
// Hybrid grid the best uniform point is searched on, and the regret above
// which a problem is listed as a finding.
const (
	regretClasses = 20
	regretCharge  = 1.0
	regretPoints  = 7
	regretEps     = 0.01
)

// regretHeader heads the golden; it says how the best-point search was cut.
const regretHeader = `# Simulated seconds of every paper problem (20 classes): the optimizer's
# R*, R* with the adapter (OptCharge 1 s), the four baselines, and the best
# uniform configuration, with its CP and MR heap. The best uniform point is
# searched on the Hybrid grid at m = 7 (the service's resolution) for both
# dimensions, instead of the optimizer's m = 15: every (CP, MR) pair of it
# is simulated, with one MR heap for every block. sim(R*)/best and
# sim(ReOpt)/best end each line; a line above 1 + 0.01 in either is listed
# again as a finding at the end.
`

// regretProblem is one problem compiled once; every simulation runs it
// over a copy of its file system.
type regretProblem struct {
	name string
	hp   *hop.Program
	fs   *hdfs.FS
}

// simulate runs p at res, with the adapter when reopt is set, and returns
// the simulated seconds.
func (p *regretProblem) simulate(t *testing.T, cc conf.Cluster, res conf.Resources, reopt bool) float64 {
	fs := p.fs.Clone()
	ip := rt.New(rt.ModeSim, fs, cc, res)
	ip.SimTableCols = regretClasses
	if reopt {
		ad := adapt.New(cc)
		ad.OptCharge = regretCharge
		ip.Adapter = ad
		defer ad.Release()
	}
	if err := ip.Run(lop.Select(p.hp, cc, res)); err != nil {
		t.Errorf("%s at %s: %v", p.name, res.Detailed(), err)
	}
	return ip.SimTime
}

// regretLine simulates one problem every way the golden records. It runs
// on a worker goroutine, so it reports failures with t.Error.
func regretLine(t *testing.T, cc conf.Cluster, spec scripts.Spec, scen datagen.Scenario) (line string, optRatio, reoptRatio float64) {
	p := &regretProblem{name: fmt.Sprintf("%s %s %s", spec.Name, scen.Size, scen.ShapeName()), fs: hdfs.New()}
	datagen.Describe(p.fs, scen)
	prog, err := dml.Parse(spec.Source)
	if err == nil {
		p.hp, err = hop.NewCompiler(p.fs, spec.Params).Compile(prog, spec.Source)
	}
	if err != nil {
		t.Errorf("%s: %v", p.name, err)
		return p.name, 0, 0
	}
	rStar := opt.New(cc).Optimize(p.hp).Res
	uniform := func(cp, mr conf.Bytes) conf.Resources { return conf.NewResources(cp, mr, p.hp.NumLeaf) }
	o := p.simulate(t, cc, rStar, false)
	ro := p.simulate(t, cc, rStar, true)
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s R*=%.2f ReOpt=%.2f", p.name, o, ro)
	for _, bl := range Baselines(cc) {
		fmt.Fprintf(&b, " %s=%.2f", bl.Name, p.simulate(t, cc, uniform(bl.CP, bl.MR), false))
	}
	pts := opt.EnumGridPoints(p.hp, cc, opt.GridHybrid, regretPoints)
	best, bestCP, bestMR := math.Inf(1), conf.Bytes(0), conf.Bytes(0)
	for _, cp := range pts {
		for _, mr := range pts {
			if s := p.simulate(t, cc, uniform(cp, mr), false); s < best {
				best, bestCP, bestMR = s, cp, mr
			}
		}
	}
	fmt.Fprintf(&b, " best=%.2f@%v/%v R*/best=%.3f ReOpt/best=%.3f", best, bestCP, bestMR, o/best, ro/best)
	return b.String(), o / best, ro / best
}

// TestRegretGolden scores every paper problem's decision in the simulator
// against the baselines and the best uniform configuration, and pins the
// table in testdata/regret.golden. Regenerate with -update only when a
// decision or the simulator is meant to move, and read the diff.
func TestRegretGolden(t *testing.T) {
	cc := conf.DefaultCluster()
	type job struct {
		spec scripts.Spec
		scen datagen.Scenario
	}
	var jobs []job
	for _, spec := range scripts.All() {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				jobs = append(jobs, job{spec, datagen.New(size, sh.Cols, sh.Sparsity)})
			}
		}
	}
	lines := make([]string, len(jobs))
	ratios := make([][2]float64, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i], ratios[i][0], ratios[i][1] = regretLine(t, cc, jobs[i].spec, jobs[i].scen)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	var b strings.Builder
	b.WriteString(regretHeader)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "# Findings: problems whose R* or ReOpt simulates above %gx the best uniform point.\n", 1+regretEps)
	for i, l := range lines {
		if ratios[i][0] > 1+regretEps || ratios[i][1] > 1+regretEps {
			name := strings.TrimSpace(l[:strings.Index(l, " R*=")])
			fmt.Fprintf(&b, "# %s: R*/best=%.3f ReOpt/best=%.3f\n", name, ratios[i][0], ratios[i][1])
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenRegret, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenRegret)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
