package bench

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/lop"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// TestModelSimCalibration verifies that the optimizer's cost model and the
// execution simulator agree within a band across known-size programs,
// scenarios, and configurations. This is the foundation of the whole
// approach: the optimizer can only find near-optimal configurations if its
// estimates track the (simulated) reality. Programs with unknowns are
// excluded — their model is intentionally blind until runtime adaptation.
func TestModelSimCalibration(t *testing.T) {
	cc := conf.DefaultCluster()
	specs := []scripts.Spec{scripts.LinregDS(), scripts.LinregCG(), scripts.L2SVM()}
	configs := []conf.Resources{
		conf.NewResources(512*conf.MB, 2*conf.GB, 1),
		conf.NewResources(8*conf.GB, 2*conf.GB, 1),
		conf.NewResources(conf.BytesOfGB(53.3), conf.BytesOfGB(4.4), 1),
	}
	sizes := []string{"S", "M", "L"}
	r := New(nil)
	checked := 0
	for _, spec := range specs {
		for _, size := range sizes {
			s := datagen.New(size, 1000, 1.0)
			hp, fs, err := r.compileScenario(spec, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range configs {
				res := conf.NewResources(base.CP, base.MRFor(0), hp.NumLeaf)
				plan := lop.Select(hp, cc, res)
				est := cost.NewEstimator(cc)
				modeled := est.ProgramCost(plan)
				ip := rt.New(rt.ModeSim, fs, cc, res)
				if err := ip.Run(plan); err != nil {
					t.Fatalf("%s %s %v: %v", spec.Name, size, res, err)
				}
				if ip.SimTime <= 0 {
					continue
				}
				ratio := modeled / ip.SimTime
				// The model assumes DefaultIters loop trips and half-weight
				// evictions, so a generous band; gross disagreement means a
				// costing bug.
				if ratio < 0.2 || ratio > 5 {
					t.Errorf("%s %s %s: model %.1fs vs sim %.1fs (ratio %.2f)",
						spec.Name, size, res.String(), modeled, ip.SimTime, ratio)
				}
				checked++
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d calibration points checked", checked)
	}
}

// TestOptimizerChoiceValidatedBySimulator: for known-size programs, the
// configuration the optimizer picks must simulate within 1.3x of the best
// static baseline's simulation — the end-to-end soundness property behind
// Figures 7-9.
func TestOptimizerChoiceValidatedBySimulator(t *testing.T) {
	r := New(nil)
	r.Quick = true
	cc := conf.DefaultCluster()
	for _, spec := range []scripts.Spec{scripts.LinregDS(), scripts.LinregCG(), scripts.L2SVM()} {
		for _, size := range []string{"S", "M"} {
			s := datagen.New(size, 1000, 1.0)
			optRun, err := r.EndToEnd(spec, s, RunConfig{Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			best := -1.0
			for _, b := range Baselines(cc) {
				run, err := r.EndToEnd(spec, s, RunConfig{Res: conf.NewResources(b.CP, b.MR, 1)})
				if err != nil {
					t.Fatal(err)
				}
				if best < 0 || run.SimSeconds < best {
					best = run.SimSeconds
				}
			}
			if optRun.SimSeconds > best*1.3+1 {
				t.Errorf("%s %s: Opt %.1fs vs best baseline %.1fs",
					spec.Name, size, optRun.SimSeconds, best)
			}
		}
	}
}
