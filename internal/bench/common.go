// Package bench regenerates every table and figure of the paper's
// evaluation (§5 and appendices) on the simulated cluster: the same
// programs, scenarios, baselines, and reported rows/series. Absolute times
// come from the analytic performance model and are not expected to match
// the authors' testbed; the shape — which configuration wins, by what
// rough factor, where crossovers occur — is the reproduction target (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/mr"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// Runner executes experiments and prints their reports.
type Runner struct {
	CC  conf.Cluster
	Out io.Writer
	// Quick reduces grid resolution and scenario coverage for fast test
	// runs; full runs match the paper's parameters.
	Quick bool
	// ArtifactDir is where experiments drop machine-readable outputs
	// (e.g. BENCH_workload.json); empty means the current directory.
	ArtifactDir string
}

// New returns a Runner printing to out.
func New(out io.Writer) *Runner {
	return &Runner{CC: conf.DefaultCluster(), Out: out}
}

func (r *Runner) printf(format string, args ...interface{}) {
	fmt.Fprintf(r.Out, format, args...)
}

// Baseline is a static resource configuration (§5.1).
type Baseline struct {
	Name   string
	CP, MR conf.Bytes
}

// Baselines returns the paper's four static configurations: B-SS, B-LS,
// B-SL, B-LL (512MB/53.3GB CP x 512MB/4.4GB MR heaps).
func Baselines(cc conf.Cluster) []Baseline {
	small := 512 * conf.MB
	largeCP := cc.MaxHeap()        // ~53.3GB
	largeMR := conf.BytesOfGB(4.4) // 12 tasks/node
	return []Baseline{
		{"B-SS", small, small},
		{"B-LS", largeCP, small},
		{"B-SL", small, largeMR},
		{"B-LL", largeCP, largeMR},
	}
}

// compileScenario parses and compiles a program against a scenario's
// descriptor file system.
func (r *Runner) compileScenario(spec scripts.Spec, s datagen.Scenario) (*hop.Program, *hdfs.FS, error) {
	fs := hdfs.New()
	datagen.Describe(fs, s)
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: parse %s: %w", spec.Name, err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: compile %s: %w", spec.Name, err)
	}
	return hp, fs, nil
}

// RunConfig controls one end-to-end measurement.
type RunConfig struct {
	// Res is the static configuration; ignored when Optimize is set.
	Res conf.Resources
	// Optimize runs initial resource optimization; its wall time is
	// reported in RunResult.OptStats.OptTime, not charged to the run.
	Optimize bool
	// Adapt enables runtime resource adaptation.
	Adapt bool
	// Classes is the label cardinality driving table() output sizes.
	Classes int64
	// Faults injects failures into the run (zero value: no injection).
	Faults fault.Plan
	// Policy governs task-level retry under fault injection; the zero
	// value normalizes to 4 attempts with speculation off.
	Policy mr.TaskPolicy
	// OptCharge, when > 0, replaces the adapter's default simulated charge
	// per re-optimization (adapt.DefaultOptCharge).
	OptCharge float64
}

// RunResult is one end-to-end measurement.
type RunResult struct {
	// Res is the configuration the program started with.
	Res conf.Resources
	// FinalRes is the configuration after adaptation.
	FinalRes conf.Resources
	// Migrations counts runtime migrations.
	Migrations int
	// MRJobs counts executed MR jobs.
	MRJobs int
	// OptStats carries the optimizer statistics when Optimize was set.
	OptStats opt.Stats
	// SimSeconds is the simulated end-to-end time, a function of the
	// run's inputs and fault seed alone.
	SimSeconds float64
	// Fault-recovery activity (zero without injection).
	NodeFailures, TaskRetries, Stragglers, HDFSRetries int
	// ContainerLossReopts counts re-optimizations triggered by node loss.
	ContainerLossReopts int
	// RecoverySeconds is the simulated time spent re-executing failed or
	// straggling work (included in SimSeconds).
	RecoverySeconds float64
}

// EndToEnd measures one program/scenario/configuration combination via the
// execution simulator.
func (r *Runner) EndToEnd(spec scripts.Spec, s datagen.Scenario, cfg RunConfig) (RunResult, error) {
	hp, fs, err := r.compileScenario(spec, s)
	if err != nil {
		return RunResult{}, err
	}
	res := cfg.Res
	var out RunResult
	if cfg.Optimize {
		o := opt.New(r.CC)
		if r.Quick {
			o.Opts.Points = 7
		}
		result := o.Optimize(hp)
		out.OptStats = result.Stats
		res = result.Res
	}
	if len(res.MR) == 0 {
		res = conf.NewResources(res.CP, res.MRFor(0), hp.NumLeaf)
	}
	out.Res = res.Clone()
	plan := lop.Select(hp, r.CC, res)
	ip := rt.New(rt.ModeSim, fs, r.CC, res)
	if cfg.Classes > 0 {
		ip.SimTableCols = cfg.Classes
	}
	var ad *adapt.Adapter
	if cfg.Adapt {
		ad = adapt.New(r.CC)
		if r.Quick {
			ad.Opt.Points = 7
		}
		if cfg.OptCharge > 0 {
			ad.OptCharge = cfg.OptCharge
		}
		ip.Adapter = ad
	}
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			return RunResult{}, fmt.Errorf("bench: fault plan: %w", err)
		}
		ip.Faults = inj
		ip.Policy = cfg.Policy
	}
	if err := ip.Run(plan); err != nil {
		return RunResult{}, fmt.Errorf("bench: %s on %s: %w", spec.Name, s, err)
	}
	out.SimSeconds = ip.SimTime
	out.FinalRes = ip.Res.Clone()
	out.Migrations = ip.Stats.Migrations
	out.MRJobs = ip.Stats.MRJobs
	out.NodeFailures = ip.Stats.NodeFailures
	out.TaskRetries = ip.Stats.TaskRetries
	out.Stragglers = ip.Stats.Stragglers
	out.HDFSRetries = ip.Stats.HDFSRetries
	out.RecoverySeconds = ip.Stats.RecoverySeconds
	if ad != nil {
		out.ContainerLossReopts = ad.Stats.ContainerLossReopts
	}
	return out, nil
}

// sizesUpTo returns scenario labels XS..max.
func sizesUpTo(max string) []string {
	var out []string
	for _, s := range datagen.Sizes {
		out = append(out, s)
		if s == max {
			break
		}
	}
	return out
}

func fmtSecs(s float64) string {
	return fmt.Sprintf("%8.1f", s)
}
