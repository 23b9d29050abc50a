package bench

import (
	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
	"elasticml/internal/spark"
	"elasticml/internal/yarn"
)

// Table5 regenerates the Spark runtime comparison: SystemML-on-MR with
// resource optimization vs the hand-coded Hybrid and Full L2SVM plans on a
// Spark-style stateful executor framework, scenarios XS-XL dense1000
// (Appendix D).
func (r *Runner) Table5() error {
	cfg := spark.DefaultConfig()
	r.printf("Table 5: Spark Comparison, L2SVM dense1000 — time [s]\n")
	r.printf("  %-10s %12s %14s %14s\n", "Scenario", "MR w/ Opt", "Spark Plan 1", "Spark Plan 2")
	maxSize := "XL"
	if r.Quick {
		maxSize = "M"
	}
	for _, size := range sizesUpTo(maxSize) {
		s := datagen.New(size, 1000, 1.0)
		mlRun, err := r.EndToEnd(scripts.L2SVM(), s, RunConfig{Optimize: true})
		if err != nil {
			return err
		}
		w := spark.L2SVMWorkload{Rows: s.Rows(), Cols: s.Cols, Sparsity: s.Sparsity,
			OuterIters: 5, InnerIters: 5}
		hybrid := spark.Estimate(cfg, w, spark.PlanHybrid)
		full := spark.Estimate(cfg, w, spark.PlanFull)
		r.printf("  %-10s %11.0fs %13.0fs %13.0fs\n", size, mlRun.SimSeconds, hybrid, full)
	}
	r.printf("\n")
	return nil
}

// Table6 regenerates the Spark throughput comparison on scenario S:
// SystemML with optimized resources vs Spark Plan 2, whose static
// driver+executor footprint admits only one concurrent application
// (Appendix D).
func (r *Runner) Table6() error {
	cfg := spark.DefaultConfig()
	s := datagen.New("S", 1000, 1.0)
	mlRun, err := r.EndToEnd(scripts.L2SVM(), s, RunConfig{Optimize: true})
	if err != nil {
		return err
	}
	w := spark.L2SVMWorkload{Rows: s.Rows(), Cols: s.Cols, Sparsity: s.Sparsity,
		OuterIters: 5, InnerIters: 5}
	sparkSecs := spark.Estimate(cfg, w, spark.PlanFull)

	r.printf("Table 6: Spark Throughput Comparison, L2SVM scenario S [apps/min]\n")
	r.printf("  SystemML w/ Opt: %s per app %.1fs; Spark Plan 2: whole-cluster app %.1fs\n",
		mlRun.Res.String(), mlRun.SimSeconds, sparkSecs)
	r.printf("  %-7s %14s %14s\n", "#Users", "SystemML", "Spark Full")
	for _, u := range []int{1, 8, 32} {
		ml := yarn.SimulateThroughput(r.CC, yarn.ThroughputSpec{
			Users: u, AppsPerUser: 8, AMHeap: mlRun.Res.CP, Duration: mlRun.SimSeconds})
		// A Spark app occupies the full cluster: capacity 1, apps run
		// back-to-back regardless of user count.
		sparkApps := float64(u*8) / (float64(u*8) * sparkSecs / 60)
		r.printf("  %-7d %14.1f %14.2f\n", u, ml.AppsPerMinute, sparkApps)
	}
	r.printf("\n")
	return nil
}
