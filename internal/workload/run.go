package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
)

// RunSpec is the one declarative description of a run, as a JSON document:
// the cluster, the service options, and where the jobs come from — an
// explicit list, a seeded generator, or (daemon mode) the wire. It is what
// elastic-serve -scenario loads. The Cluster and Options types are their own
// wire format, so the server's op log records the same two values under the
// same field names and a recorded run replays under exactly the options the
// live run had.
//
//	{
//	  "cluster":  {"nodes": 2, "mem_per_node": "1GB"},
//	  "policy":   "fair",
//	  "elastic":  {"tick": 5},
//	  "chaos":    {"seed": 7, "slow_nodes": [{"node": 0, "at": 15, "factor": 3, "duration": 40}]},
//	  "generate": {"kind": "burst", "tenants": 12, "seed": 42}
//	}
type RunSpec struct {
	// Cluster is read over the two-node, 2 GB-per-node demo cluster, and
	// its MaxAlloc is capped at MemPerNode afterwards.
	Cluster conf.Cluster `json:"cluster"`
	// Options' fields are top-level keys of the document ("policy",
	// "cache_entries", "chaos", "recovery", "breaker", "elastic", ...), read over
	// DefaultOptions with straggler speculation on.
	Options
	// Jobs lists the submissions explicitly; Generate draws them from a
	// seeded generator instead. A file names at most one of the two.
	Jobs     []ScenarioJob `json:"jobs,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Daemon holds the network daemon's tuning values (sessions, timeouts,
	// limiter, arrival gap). The service never reads them, so the section
	// stays opaque here and elastic-serve decodes it into the server's own
	// configuration type.
	Daemon json.RawMessage `json:"daemon,omitempty"`
}

// ScenarioJob is one explicit job of a run description: an evaluation
// script (LinregDS, LinregCG, L2SVM, MLogreg, GLM, or the mini-batch family
// MinibatchLR, MinibatchLinreg, MLP2), a data scenario (defaults
// S/1000/dense), and an arrival time in simulated seconds.
type ScenarioJob struct {
	Tenant   string  `json:"tenant"`
	Script   string  `json:"script"`
	Size     string  `json:"size"`
	Cols     int64   `json:"cols"`
	Sparsity float64 `json:"sparsity"`
	Arrival  float64 `json:"arrival"`
	// Optional malleability bounds; all zero means a rigid one-container
	// job (see ElasticSpec).
	MinContainers     int `json:"min_containers,omitempty"`
	DesiredContainers int `json:"desired_containers,omitempty"`
	MaxContainers     int `json:"max_containers,omitempty"`
	WidthStep         int `json:"width_step,omitempty"`
	// Optional epoch-structure overrides for the iterative mini-batch
	// scripts: they replace the script's $epochs / $batches parameters.
	Epochs  int `json:"epochs,omitempty"`
	Batches int `json:"batches,omitempty"`
}

// GenerateSpec selects one of the seeded trace generators.
type GenerateSpec struct {
	// Kind is "uniform" (Generate; the default), "burst"
	// (GenerateSkewedBurst) or "minibatch" (GenerateMinibatch).
	Kind    string `json:"kind"`
	Tenants int    `json:"tenants"`
	Seed    int64  `json:"seed"`
	// MeanGap is the uniform generator's mean inter-arrival gap in
	// simulated seconds; the bursty generators space their own arrivals.
	MeanGap float64 `json:"mean_gap,omitempty"`
}

// baseRunSpec is what a run description is decoded over.
func baseRunSpec() *RunSpec {
	s := &RunSpec{Cluster: conf.DefaultCluster(), Options: DefaultOptions()}
	s.Cluster.Nodes = 2
	s.Cluster.MemPerNode = 2 * conf.GB
	s.TaskPolicy.Speculative = true
	return s
}

// capAlloc keeps container requests within one node's memory.
func (s *RunSpec) capAlloc() {
	if s.Cluster.MaxAlloc > s.Cluster.MemPerNode {
		s.Cluster.MaxAlloc = s.Cluster.MemPerNode
	}
}

// DefaultRunSpec is the run elastic-serve performs without a -scenario
// file: 16 uniformly drawn tenants on the demo cluster.
func DefaultRunSpec() *RunSpec {
	s := baseRunSpec()
	s.capAlloc()
	s.Generate = &GenerateSpec{Kind: "uniform", Tenants: 16, Seed: 42, MeanGap: 3}
	return s
}

// LoadRunSpec parses a run description. Unknown fields, unknown policy or
// recovery names and malformed sizes are errors; whether the chaos plan
// fits the cluster is checked where every plan is, by New and Run.
func LoadRunSpec(rd io.Reader) (*RunSpec, error) {
	s := baseRunSpec()
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("workload: scenario: %w", err)
	}
	if s.Recovery.MaxRetries < 0 {
		return nil, fmt.Errorf("workload: scenario: negative recovery.max_retries %d", s.Recovery.MaxRetries)
	}
	s.capAlloc()
	return s, nil
}

// JobSpecs returns the run's submissions: the explicit list resolved
// against the script registry, or the generator's output.
func (s *RunSpec) JobSpecs() ([]JobSpec, error) {
	if g := s.Generate; g != nil {
		if len(s.Jobs) > 0 {
			return nil, fmt.Errorf("workload: scenario: both jobs and generate")
		}
		if g.Tenants < 1 {
			return nil, fmt.Errorf("workload: scenario: generate.tenants must be positive, got %d", g.Tenants)
		}
		switch g.Kind {
		case "", "uniform":
			return Generate(g.Seed, g.Tenants, g.MeanGap), nil
		case "burst":
			return GenerateSkewedBurst(g.Seed, g.Tenants), nil
		case "minibatch":
			return GenerateMinibatch(g.Seed, g.Tenants), nil
		}
		return nil, fmt.Errorf("workload: scenario: unknown generate.kind %q (want uniform, burst, or minibatch)", g.Kind)
	}
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("workload: scenario: no jobs")
	}
	jobs := make([]JobSpec, len(s.Jobs))
	for i, sj := range s.Jobs {
		if sj.Tenant == "" {
			sj.Tenant = tenantName(i)
		}
		var err error
		if jobs[i], err = sj.Resolve(); err != nil {
			return nil, fmt.Errorf("workload: scenario job %d: %w", i, err)
		}
	}
	return jobs, nil
}

// Resolve turns a script-mode job description into a submission: the script
// looked up in the registry, the data scenario with its S / 1000 / dense
// defaults filled in and validated. It is the one resolver a run
// description's jobs and the daemon's SubmitJob frames share.
func (sj ScenarioJob) Resolve() (JobSpec, error) {
	spec, ok := scripts.ByName(sj.Script)
	if !ok {
		return JobSpec{}, fmt.Errorf("unknown script %q", sj.Script)
	}
	if sj.Epochs < 0 || sj.Batches < 0 {
		return JobSpec{}, fmt.Errorf("negative epochs/batches")
	}
	if sj.Size == "" {
		sj.Size = "S"
	}
	if sj.Cols == 0 {
		sj.Cols = 1000
	}
	if sj.Sparsity == 0 {
		sj.Sparsity = 1.0
	}
	sc, err := datagen.Parse(sj.Size, sj.Cols, sj.Sparsity)
	if err != nil {
		return JobSpec{}, err
	}
	return JobSpec{
		Tenant: sj.Tenant, Script: withEpochs(spec, sj.Epochs, sj.Batches), Scenario: sc, Arrival: sj.Arrival,
		Elastic: ElasticSpec{
			MinContainers:     sj.MinContainers,
			DesiredContainers: sj.DesiredContainers,
			MaxContainers:     sj.MaxContainers,
			Step:              sj.WidthStep,
		},
	}, nil
}

// withEpochs returns spec with its $epochs / $batches parameters replaced
// by the positive arguments, on a copy of the parameter map: the script
// registry's default maps are shared.
func withEpochs(spec scripts.Spec, epochs, batches int) scripts.Spec {
	if epochs <= 0 && batches <= 0 {
		return spec
	}
	params := make(map[string]interface{}, len(spec.Params)+2)
	for k, v := range spec.Params {
		params[k] = v
	}
	if epochs > 0 {
		params["epochs"] = float64(epochs)
	}
	if batches > 0 {
		params["batches"] = float64(batches)
	}
	spec.Params = params
	return spec
}
