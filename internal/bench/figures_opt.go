package bench

import (
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/opt"
	"elasticml/internal/scripts"
	"elasticml/internal/yarn"
)

// Figure12 regenerates the end-to-end throughput comparison: Opt vs B-LL
// for LinregDS (scenario S dense1000) and L2SVM (scenario M sparse100)
// across 1-128 users with 8 applications each (§5.3).
func (r *Runner) Figure12() error {
	cases := []struct {
		spec    scripts.Spec
		s       datagen.Scenario
		classes int64
	}{
		{scripts.LinregDS(), datagen.New("S", 1000, 1.0), 0},
		{scripts.L2SVM(), datagen.New("M", 100, 0.01), 0},
	}
	users := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if r.Quick {
		users = []int{1, 8, 32, 128}
	}
	bll := Baselines(r.CC)[3]
	for _, tc := range cases {
		optRun, err := r.EndToEnd(tc.spec, tc.s, RunConfig{Optimize: true, Classes: tc.classes})
		if err != nil {
			return err
		}
		bllRun, err := r.EndToEnd(tc.spec, tc.s, RunConfig{
			Res: conf.NewResources(bll.CP, bll.MR, 1), Classes: tc.classes})
		if err != nil {
			return err
		}
		r.printf("Figure 12: %s %s %s — throughput [apps/min]\n",
			tc.spec.Name, tc.s.Size, tc.s.ShapeName())
		r.printf("  Opt config %s (%.0fs/app, max %d parallel) vs B-LL %s (%.0fs/app, max %d parallel)\n",
			optRun.Res.String(), optRun.SimSeconds,
			yarn.MaxConcurrentApps(r.CC, optRun.Res.CP),
			bll.CP, bllRun.SimSeconds, yarn.MaxConcurrentApps(r.CC, bll.CP))
		r.printf("  %-7s %10s %10s %8s\n", "#Users", "Opt", "B-LL", "speedup")
		for _, u := range users {
			optT := yarn.SimulateThroughput(r.CC, yarn.ThroughputSpec{
				Users: u, AppsPerUser: 8, AMHeap: optRun.Res.CP, Duration: optRun.SimSeconds})
			bllT := yarn.SimulateThroughput(r.CC, yarn.ThroughputSpec{
				Users: u, AppsPerUser: 8, AMHeap: bll.CP, Duration: bllRun.SimSeconds})
			speedup := 0.0
			if bllT.AppsPerMinute > 0 {
				speedup = optT.AppsPerMinute / bllT.AppsPerMinute
			}
			r.printf("  %-7d %10.1f %10.1f %7.1fx\n", u, optT.AppsPerMinute, bllT.AppsPerMinute, speedup)
		}
		r.printf("\n")
	}
	return nil
}

// Figure13 regenerates the grid-generator comparison: number of generated
// points per dimension for LinregDS dense1000 scenarios XS-XL with base
// grids of m=15 and m=45 points.
func (r *Runner) Figure13() error {
	for _, m := range []int{15, 45} {
		r.printf("Figure 13: grid points per dimension (LinregDS dense1000, base grid m=%d)\n", m)
		r.printf("  %-9s %6s %6s %6s %8s\n", "Scenario", "Equi", "Exp", "Mem", "Hybrid")
		for _, size := range datagen.Sizes {
			s := datagen.New(size, 1000, 1.0)
			hp, _, err := r.compileScenario(scripts.LinregDS(), s)
			if err != nil {
				return err
			}
			counts := make(map[opt.GridType]int)
			for _, g := range []opt.GridType{opt.GridEqui, opt.GridExp, opt.GridMem, opt.GridHybrid} {
				counts[g] = len(opt.EnumGridPoints(hp, r.CC, g, m))
			}
			r.printf("  %-9s %6d %6d %6d %8d\n", size,
				counts[opt.GridEqui], counts[opt.GridExp], counts[opt.GridMem], counts[opt.GridHybrid])
		}
		r.printf("\n")
	}
	return nil
}

// Figure14 regenerates the pruning effectiveness chart: percentage of
// remaining blocks (MR dimension enumerated) after pruning, per program
// and scenario on dense1000 data.
func (r *Runner) Figure14() error {
	r.printf("Figure 14: remaining blocks after pruning [%%] (dense, 1000 cols)\n")
	r.printf("  %-10s", "Scenario")
	for _, spec := range scripts.All() {
		r.printf(" %9s", spec.Name)
	}
	r.printf("\n")
	maxSize := "XL"
	if r.Quick {
		maxSize = "M"
	}
	for _, size := range sizesUpTo(maxSize) {
		r.printf("  %-10s", size)
		for _, spec := range scripts.All() {
			s := datagen.New(size, 1000, 1.0)
			hp, _, err := r.compileScenario(spec, s)
			if err != nil {
				return err
			}
			o := opt.New(r.CC)
			if r.Quick {
				o.Opts.Points = 7
			}
			res := o.Optimize(hp)
			pct := 0.0
			if res.Stats.TotalBlocks > 0 {
				pct = 100 * float64(res.Stats.RemainingBlocks) / float64(res.Stats.TotalBlocks)
			}
			r.printf(" %8.1f%%", pct)
		}
		r.printf("\n")
	}
	r.printf("\n")
	return nil
}

// Table3 regenerates the optimization-overhead details on dense1000: block
// recompilations, cost-model invocations, optimization time, and relative
// overhead versus total execution time (Hybrid, m=15, sequential).
func (r *Runner) Table3() error {
	r.printf("Table 3: Optimization Details Dense1000 (Hybrid m=15, sequential)\n")
	r.printf("%-10s %-5s %8s %8s %10s %8s\n", "Prog.", "Scen.", "#Comp.", "#Cost.", "Opt.Time", "%%")
	for _, spec := range scripts.All() {
		maxSize := "L"
		if spec.Name == "LinregDS" {
			maxSize = "XL"
		}
		if r.Quick {
			maxSize = "M"
		}
		classes := int64(0)
		if spec.Name == "MLogreg" {
			classes = 20
		}
		for _, size := range sizesUpTo(maxSize) {
			s := datagen.New(size, 1000, 1.0)
			run, err := r.EndToEnd(spec, s, RunConfig{Optimize: true, Classes: classes})
			if err != nil {
				return err
			}
			optSecs := run.OptStats.OptTime.Seconds()
			rel := 0.0
			if total := run.SimSeconds + optSecs; total > 0 {
				rel = 100 * optSecs / total
			}
			r.printf("%-10s %-5s %8d %8d %9.3fs %7.2f\n",
				spec.Name, size, run.OptStats.BlockCompilations,
				run.OptStats.Costings, optSecs, rel)
		}
	}
	r.printf("\n")
	return nil
}

// Figure15 regenerates the runtime-adaptation comparison: MLogreg and GLM
// on scenarios S and M across the four shapes — B-LL vs Opt (no
// adaptation) vs ReOpt (with adaptation), annotated with migration counts.
func (r *Runner) Figure15() error {
	bll := Baselines(r.CC)[3]
	sizes := []string{"S", "M"}
	if r.Quick {
		sizes = []string{"S"}
	}
	for _, size := range sizes {
		r.printf("Figure 15: runtime plan adaptation, scenario %s — time [s] (migrations)\n", size)
		r.printf("  %-9s %-11s %9s %9s %9s %6s\n", "Prog.", "shape", "B-LL", "Opt", "ReOpt", "#mig")
		glmBinomial := scripts.GLM()
		glmBinomial.Params["dfam"] = float64(2) // binomial: data-dependent response expansion
		for _, spec := range []scripts.Spec{scripts.MLogreg(), glmBinomial} {
			classes := int64(20)
			shapes := datagen.Shapes()
			if r.Quick {
				shapes = shapes[:2]
			}
			for _, sh := range shapes {
				s := datagen.New(size, sh.Cols, sh.Sparsity)
				bllRun, err := r.EndToEnd(spec, s, RunConfig{
					Res: conf.NewResources(bll.CP, bll.MR, 1), Classes: classes})
				if err != nil {
					return err
				}
				optRun, err := r.EndToEnd(spec, s, RunConfig{Optimize: true, Classes: classes})
				if err != nil {
					return err
				}
				reoptRun, err := r.EndToEnd(spec, s, RunConfig{Optimize: true, Adapt: true, Classes: classes})
				if err != nil {
					return err
				}
				r.printf("  %-9s %-11s %9.1f %9.1f %9.1f %6d\n",
					spec.Name, s.ShapeName(), bllRun.SimSeconds, optRun.SimSeconds,
					reoptRun.SimSeconds, reoptRun.Migrations)
			}
		}
		r.printf("\n")
	}
	return nil
}

// Figure18 regenerates the parallel-optimizer comparison: GLM dense1000
// optimization time with 1-16 worker threads (Equi m=45, scenario L) and
// serial vs parallel across scenarios (Hybrid).
func (r *Runner) Figure18() error {
	size := "L"
	if r.Quick {
		size = "M"
	}
	s := datagen.New(size, 1000, 1.0)
	hp, _, err := r.compileScenario(scripts.GLM(), s)
	if err != nil {
		return err
	}
	r.printf("Figure 18(a): GLM dense1000 %s, Equi m=45 — optimization time\n", size)
	r.printf("  %-8s %12s\n", "#Threads", "Opt time")
	threads := []int{1, 2, 4, 8, 16}
	for _, w := range threads {
		o := opt.New(r.CC)
		o.Opts.Grid = opt.GridEqui
		o.Opts.Points = 45
		o.Opts.Workers = w
		res := o.Optimize(hp)
		r.printf("  %-8d %12v\n", w, res.Stats.OptTime.Round(time.Millisecond))
	}

	r.printf("Figure 18(b): GLM dense1000, Hybrid — serial vs parallel per scenario\n")
	r.printf("  %-9s %12s %12s\n", "Scenario", "Serial", "Parallel(8)")
	maxSize := "L"
	if r.Quick {
		maxSize = "M"
	}
	for _, size := range sizesUpTo(maxSize) {
		sc := datagen.New(size, 1000, 1.0)
		hp2, _, err := r.compileScenario(scripts.GLM(), sc)
		if err != nil {
			return err
		}
		serial := opt.New(r.CC)
		serRes := serial.Optimize(hp2)
		par := opt.New(r.CC)
		par.Opts.Workers = 8
		parRes := par.Optimize(hp2)
		r.printf("  %-9s %12v %12v\n", size,
			serRes.Stats.OptTime.Round(time.Millisecond),
			parRes.Stats.OptTime.Round(time.Millisecond))
	}
	r.printf("\n")
	return nil
}
