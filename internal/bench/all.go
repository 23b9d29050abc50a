package bench

import "fmt"

// Experiments maps experiment identifiers to their runners, in the paper's
// order. The identifiers match DESIGN.md's per-experiment index.
func (r *Runner) Experiments() []struct {
	ID  string
	Run func() error
} {
	return []struct {
		ID  string
		Run func() error
	}{
		{"fig1", r.Figure1},
		{"table1", r.Table1},
		{"table2", r.Table2},
		{"fig7", r.Figure7},
		{"fig8", r.Figure8},
		{"fig9", r.Figure9},
		{"fig10", r.Figure10},
		{"fig11", r.Figure11},
		{"fig12", r.Figure12},
		{"fig13", r.Figure13},
		{"fig14", r.Figure14},
		{"table3", r.Table3},
		{"fig15", r.Figure15},
		{"fig18", r.Figure18},
		{"table5", r.Table5},
		{"table6", r.Table6},
		{"ablations", r.Ablations},
		{"failures", r.FailureSweep},
		{"workload", experiment(r, workloadSweep)},
		{"chaos", experiment(r, chaosSweep)},
		{"elastic", experiment(r, elasticSweep)},
		{"minibatch", experiment(r, minibatchSweep)},
	}
}

// Run executes one experiment by identifier, or all of them for "all".
func (r *Runner) Run(id string) error {
	if id == "all" {
		for _, e := range r.Experiments() {
			if err := e.Run(); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	for _, e := range r.Experiments() {
		if e.ID == id {
			return e.Run()
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}
