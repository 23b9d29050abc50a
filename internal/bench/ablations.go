package bench

import (
	"time"

	"elasticml/internal/datagen"
	"elasticml/internal/opt"
	"elasticml/internal/scripts"
	"elasticml/internal/spark"
)

// Ablations quantifies the optimizer's design choices beyond the paper's
// figures: grid-strategy quality (regret vs a fine reference grid),
// pruning effort savings, the multi-core search dimension, and
// cluster-load-aware re-optimization.
func (r *Runner) Ablations() error {
	if err := r.ablationGrids(); err != nil {
		return err
	}
	if err := r.ablationPruning(); err != nil {
		return err
	}
	if err := r.ablationCores(); err != nil {
		return err
	}
	if err := r.ablationLoad(); err != nil {
		return err
	}
	return r.ablationSparkSizing()
}

// ablationGrids compares found-configuration quality and effort across
// grid strategies, using a fine equi-spaced grid as the reference optimum.
func (r *Runner) ablationGrids() error {
	r.printf("Ablation A: grid strategy quality (LinregCG dense1000 M)\n")
	r.printf("  %-8s %8s %10s %12s %9s\n", "Grid", "points", "est. cost", "regret", "compiles")
	s := datagen.New("M", 1000, 1.0)
	hp, _, err := r.compileScenario(scripts.LinregCG(), s)
	if err != nil {
		return err
	}
	// Reference: fine equi grid.
	ref := opt.New(r.CC)
	ref.Opts.Grid = opt.GridEqui
	ref.Opts.Points = 45
	refRes := ref.Optimize(hp)

	for _, g := range []opt.GridType{opt.GridEqui, opt.GridExp, opt.GridMem, opt.GridHybrid} {
		o := opt.New(r.CC)
		o.Opts.Grid = g
		o.Opts.Points = 15
		res := o.Optimize(hp)
		regret := (res.Cost - refRes.Cost) / refRes.Cost * 100
		r.printf("  %-8s %8d %9.1fs %11.2f%% %9d\n", g, res.Stats.CPPoints,
			res.Cost, regret, res.Stats.BlockCompilations)
	}
	r.printf("  (reference: Equi m=45, %.1fs, %d compiles)\n\n",
		refRes.Cost, refRes.Stats.BlockCompilations)
	return nil
}

// ablationPruning reports effort with and without block pruning across the
// five programs.
func (r *Runner) ablationPruning() error {
	r.printf("Ablation B: block pruning effort savings (dense1000 M, Hybrid m=15)\n")
	r.printf("  %-10s %12s %12s %9s %12s\n", "Program", "compiles", "no-pruning", "savings", "cost delta")
	s := datagen.New("M", 1000, 1.0)
	for _, spec := range scripts.All() {
		hp, _, err := r.compileScenario(spec, s)
		if err != nil {
			return err
		}
		with := opt.New(r.CC)
		a := with.Optimize(hp)
		without := opt.New(r.CC)
		without.Opts.DisablePruning = true
		b := without.Optimize(hp)
		sav := 100 * (1 - float64(a.Stats.BlockCompilations)/float64(b.Stats.BlockCompilations))
		r.printf("  %-10s %12d %12d %8.1f%% %11.2f%%\n", spec.Name,
			a.Stats.BlockCompilations, b.Stats.BlockCompilations, sav,
			100*(a.Cost-b.Cost)/b.Cost)
	}
	r.printf("\n")
	return nil
}

// ablationCores evaluates the additional CP-core search dimension (§6).
func (r *Runner) ablationCores() error {
	r.printf("Ablation C: CP core dimension (§6), dense1000 M\n")
	r.printf("  %-10s %14s %14s %7s\n", "Program", "1-core cost", "multi cost", "cores")
	s := datagen.New("M", 1000, 1.0)
	for _, spec := range []scripts.Spec{scripts.LinregDS(), scripts.LinregCG(), scripts.L2SVM()} {
		hp, _, err := r.compileScenario(spec, s)
		if err != nil {
			return err
		}
		single := opt.New(r.CC)
		single.Opts.Points = 7
		a := single.Optimize(hp)
		multi := opt.New(r.CC)
		multi.Opts.Points = 7
		multi.Opts.CPCoreCandidates = []int{1, 4, 12}
		b := multi.Optimize(hp)
		r.printf("  %-10s %13.1fs %13.1fs %7d\n", spec.Name, a.Cost, b.Cost, b.Res.Cores())
	}
	r.printf("\n")
	return nil
}

// ablationSparkSizing demonstrates the §6/Appendix-D potential analysis:
// right-sizing Spark-style executor configurations instead of statically
// claiming the cluster.
func (r *Runner) ablationSparkSizing() error {
	r.printf("Ablation E: Spark executor right-sizing (L2SVM hybrid plan)\n")
	r.printf("  %-9s %10s %9s %12s %6s %14s\n",
		"Scenario", "static", "sized", "config", "apps", "agg. thpt gain")
	static := spark.DefaultConfig()
	for _, size := range []string{"S", "M", "L"} {
		s := datagen.New(size, 1000, 1.0)
		w := spark.L2SVMWorkload{Rows: s.Rows(), Cols: s.Cols, Sparsity: s.Sparsity,
			OuterIters: 5, InnerIters: 5}
		staticCost := spark.Estimate(static, w, spark.PlanHybrid)
		sized := spark.OptimizeExecutors(r.CC, w, spark.PlanHybrid, 1.2)
		gain := (float64(sized.MaxParallelApps) / sized.Cost) / (1.0 / staticCost)
		r.printf("  %-9s %9.1fs %8.1fs %5dx%7v %6d %13.1fx\n",
			size, staticCost, sized.Cost,
			sized.Config.Executors, sized.Config.ExecutorMem,
			sized.MaxParallelApps, gain)
	}
	r.printf("\n")
	return nil
}

// ablationLoad shows utilization-based re-optimization (§6): optimal
// configurations and costs as cluster load increases.
func (r *Runner) ablationLoad() error {
	r.printf("Ablation D: cluster-utilization-aware optimization (LinregDS dense1000 M)\n")
	r.printf("  %-8s %16s %12s %12s\n", "load", "config", "est. cost", "opt time")
	s := datagen.New("M", 1000, 1.0)
	hp, _, err := r.compileScenario(scripts.LinregDS(), s)
	if err != nil {
		return err
	}
	for _, load := range []float64{0, 0.5, 0.84, 0.95} {
		o := opt.New(r.CC)
		o.Opts.Points = 7
		o.Opts.ClusterLoad = load
		res := o.Optimize(hp)
		r.printf("  %-8.2f %16s %11.1fs %12v\n", load, res.Res.String(), res.Cost,
			res.Stats.OptTime.Round(time.Millisecond))
	}
	r.printf("\n")
	return nil
}
