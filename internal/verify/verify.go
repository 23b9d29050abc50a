// Package verify implements the differential plan-correctness harness and
// the memory-estimate soundness auditor.
//
// The paper's premise (§2.1, Appendix B) rests on two invariants the rest
// of the repo assumes but never checks end to end:
//
//  1. Memory-sensitive compiler decisions — CP vs MR selection, physical
//     operator choice, piggybacking, dynamic recompilation, runtime
//     adaptation — change the *plan* but never the *result*. The harness
//     executes every program under a matrix of resource configurations
//     chosen to force those decisions apart (CP heaps spanning the CP↔MR
//     flip points, degrees of parallelism, DFS block sizes, fault
//     injection, optimizer-picked configurations) and requires the written
//     outputs and print streams to be byte-identical across all of them,
//     and to agree with an independent naive reference interpreter that
//     evaluates the HOP DAG directly on dense matrices. All of them run
//     one compiled program, which none of them may change.
//  2. The compiler's worst-case memory estimates are sound upper bounds
//     the resource optimizer can trust. The auditor hooks every value-mode
//     kernel invocation, measures the actual operand footprint, and
//     reports any actual > estimate as a typed finding.
//
// Programs come from two sources: a curated corpus of the paper's ML
// scripts (internal/scripts) and a seeded grammar-based fuzzer over the
// constructs internal/dml supports.
package verify

import (
	"fmt"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
)

// Config is one resource configuration of the differential matrix.
type Config struct {
	// Name identifies the configuration in findings.
	Name string
	// CP is the control-program max heap; tiny values force MR plans.
	CP conf.Bytes
	// MR is the uniform MR task max heap.
	MR conf.Bytes
	// Cores is the CP core count (0 = 1).
	Cores int
	// HDFSBlock overrides the cluster DFS block size when non-zero.
	HDFSBlock conf.Bytes
	// Faults injects the given fault plan (zero value: none).
	Faults fault.Plan
	// Optimize lets the resource optimizer pick CP/MR instead of the
	// fixed values above, covering "configurations the optimizer can
	// actually choose".
	Optimize bool
}

// DefaultConfigs returns the standard differential matrix: a large all-CP
// baseline, two budgets straddling the CP↔MR operator flip points for the
// small harness inputs, a 4-core small-block configuration (4 parfor
// workers and 32 MB DFS blocks), a fault-injected run (node loss plus
// transient task/read failures), and an optimizer-chosen configuration.
func DefaultConfigs() []Config {
	return []Config{
		{Name: "cp-2g", CP: 2 * conf.GB, MR: 512 * conf.MB, Cores: 1},
		{Name: "cp-tiny", CP: 4 * conf.KB, MR: 512 * conf.MB, Cores: 1},
		{Name: "cp-mid", CP: 24 * conf.KB, MR: 256 * conf.MB, Cores: 2},
		{Name: "dop4-smallblock", CP: 2 * conf.GB, MR: 512 * conf.MB, Cores: 4, HDFSBlock: 32 * conf.MB},
		{Name: "faults", CP: 2 * conf.GB, MR: 512 * conf.MB, Cores: 2, Faults: fault.Plan{
			Seed:              7,
			NodeFailures:      []fault.NodeFailure{{Node: 0, At: 0}},
			TaskFailureProb:   0.05,
			StragglerProb:     0.05,
			StragglerFactor:   4,
			HDFSReadErrorProb: 0.02,
		}},
		{Name: "opt", MR: 512 * conf.MB, Cores: 1, Optimize: true},
	}
}

// FindingKind classifies a harness finding.
type FindingKind string

// Finding kinds. Every finding fails the harness.
const (
	// CrossConfigMismatch: two resource configurations produced different
	// results for the same program.
	CrossConfigMismatch FindingKind = "cross-config-mismatch"
	// ReferenceMismatch: a configuration disagreed with the naive
	// reference interpreter beyond the relative tolerance.
	ReferenceMismatch FindingKind = "reference-mismatch"
	// EstimateViolation: a kernel's actual memory footprint exceeded the
	// compiler's worst-case estimate.
	EstimateViolation FindingKind = "estimate-violation"
	// PoolOverPeak: the buffer pool's resident high-water mark exceeded
	// its configured budget (beyond the single-pinned-variable waiver).
	PoolOverPeak FindingKind = "pool-over-peak"
	// RunError: a configuration failed to compile or execute.
	RunError FindingKind = "run-error"
	// SharedProgramChanged: a run changed the compiled program that every
	// configuration and the reference share (its hop.AppendKey moved).
	SharedProgramChanged FindingKind = "shared-program-changed"
)

// Finding is one typed harness observation.
type Finding struct {
	Kind    FindingKind `json:"kind"`
	Program string      `json:"program"`
	// Config names the configuration (for mismatches: the pair).
	Config string `json:"config"`
	// Where locates the finding: an output path, or "op <hop>" for
	// estimate violations.
	Where string `json:"where"`
	// Detail is the human-readable description.
	Detail string `json:"detail"`
	// Op/Estimate/Actual are filled for estimate violations.
	Op       string     `json:"op,omitempty"`
	Estimate conf.Bytes `json:"estimate,omitempty"`
	Actual   conf.Bytes `json:"actual,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s/%s %s: %s", f.Kind, f.Program, f.Config, f.Where, f.Detail)
}

// ProgramResult aggregates one program's runs across the configuration
// matrix.
type ProgramResult struct {
	Program  string    `json:"program"`
	Configs  []string  `json:"configs"`
	Findings []Finding `json:"findings,omitempty"`
	// Outputs is the number of compared output matrices.
	Outputs int `json:"outputs"`
	// MaxULP is the largest cross-config ULP distance observed.
	MaxULP uint64 `json:"max_ulp"`
	// Ops is the number of audited kernel invocations across all configs.
	Ops int `json:"ops"`
}

// Report is the full harness outcome.
type Report struct {
	Seed     int64           `json:"seed"`
	Programs []ProgramResult `json:"programs"`
}

// Ops returns the total audited kernel invocations.
func (r *Report) Ops() int {
	n := 0
	for i := range r.Programs {
		n += r.Programs[i].Ops
	}
	return n
}
