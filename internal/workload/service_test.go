package workload

import (
	"bytes"
	"io/fs"
	"math"
	"reflect"
	"strings"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/scripts"
	"elasticml/scenarios"
)

// demoCluster is a deliberately tight cluster (2 nodes x 2 GB) so a
// 16-tenant workload produces admission contention: degraded admissions,
// queueing, and mid-run growth re-optimizations.
func demoCluster() conf.Cluster {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	cc.MemPerNode = 2 * conf.GB
	cc.MaxAlloc = 2 * conf.GB
	return cc
}

// demoJobs is the 16-tenant demo workload.
func demoJobs() []JobSpec {
	return Generate(42, 16, 3)
}

// demoOptions adds one node failure mid-workload.
func demoOptions() Options {
	o := DefaultOptions()
	o.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{1}, At: 25}}
	return o
}

// TestSixteenTenantDemo is the acceptance demo: sixteen tenants over a
// small cluster with one node failure must exhibit plan-cache hits,
// at least one mid-run re-optimization, and failure-driven re-admissions,
// while still serving every tenant.
func TestSixteenTenantDemo(t *testing.T) {
	rep, err := Run(demoCluster(), demoJobs(), demoOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 16 {
		t.Fatalf("want 16 tenant results, got %d", len(rep.Tenants))
	}
	if rep.Unserved != 0 {
		t.Errorf("want all tenants served, got %d unserved", rep.Unserved)
	}
	if rep.Cache.Hits < 1 {
		t.Errorf("want at least one plan-cache hit, got %+v", rep.Cache)
	}
	if rep.ReoptChecks < 1 {
		t.Errorf("want re-optimization checks, got %d", rep.ReoptChecks)
	}
	if rep.ReoptChanges < 1 {
		t.Errorf("want at least one mid-run re-optimization change, got %d", rep.ReoptChanges)
	}
	if rep.NodeFailures != 1 {
		t.Errorf("want 1 node failure, got %d", rep.NodeFailures)
	}
	if rep.Requeues < 1 {
		t.Errorf("want at least one failure-driven requeue, got %d", rep.Requeues)
	}
	if rep.MaxConcurrent < 2 {
		t.Errorf("want overlapping tenants, peak concurrency %d", rep.MaxConcurrent)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Errorf("utilization %v outside (0,1]", rep.Utilization)
	}

	// Per-tenant timing invariants.
	degraded, hits := 0, 0
	for _, tn := range rep.Tenants {
		if !tn.Served {
			continue
		}
		if tn.Admitted < tn.Arrival {
			t.Errorf("%s admitted %g before arrival %g", tn.Tenant, tn.Admitted, tn.Arrival)
		}
		if got, want := tn.QueueDelay, tn.Admitted-tn.Arrival; tn.Requeues == 0 && got != want {
			t.Errorf("%s queue delay %g, want %g", tn.Tenant, got, want)
		}
		if tn.Requeues > 0 && tn.QueueDelay > tn.Admitted-tn.Arrival {
			t.Errorf("%s first-admission delay %g exceeds final admission wait %g",
				tn.Tenant, tn.QueueDelay, tn.Admitted-tn.Arrival)
		}
		if got, want := tn.Latency, tn.Finished-tn.Arrival; got != want {
			t.Errorf("%s latency %g, want %g", tn.Tenant, got, want)
		}
		if tn.Finished > rep.Makespan {
			t.Errorf("%s finished %g after makespan %g", tn.Tenant, tn.Finished, rep.Makespan)
		}
		if tn.Config == "" {
			t.Errorf("%s has no final configuration", tn.Tenant)
		}
		if tn.OutputHash == "" {
			t.Errorf("%s has no output hash", tn.Tenant)
		}
		if tn.Degraded {
			degraded++
		}
		if tn.CacheHit {
			hits++
		}
	}
	if degraded == 0 {
		t.Error("want at least one degraded (free-slice-clamped) admission")
	}
	if hits == 0 {
		t.Error("want at least one tenant admitted via a cache hit")
	}
	if rep.P50Latency > rep.P95Latency {
		t.Errorf("p50 %g > p95 %g", rep.P50Latency, rep.P95Latency)
	}
}

// TestReportTableRenders smoke-checks the human-readable rendering.
func TestReportTableRenders(t *testing.T) {
	rep, err := Run(demoCluster(), demoJobs(), demoOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tenant-00", "plan cache:", "makespan", "degraded", "requeue:"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestCacheDisabledSameSchedule: with the cache disabled every admission
// pays a cold grid search, but the chosen configurations and the schedule
// structure must match the cached run — hits are byte-identical to fresh
// optimization by construction.
func TestCacheDisabledSameSchedule(t *testing.T) {
	cached, err := Run(demoCluster(), demoJobs(), demoOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := demoOptions()
	o.CacheEntries = -1
	cold, err := Run(demoCluster(), demoJobs(), o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Hits != 0 || cold.Cache.Misses != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", cold.Cache)
	}
	for i := range cached.Tenants {
		a, b := cached.Tenants[i], cold.Tenants[i]
		if a.Config != b.Config {
			t.Errorf("%s config diverged: cached %s vs cold %s", a.Tenant, a.Config, b.Config)
		}
		if a.OutputHash != b.OutputHash {
			t.Errorf("%s output hash diverged", a.Tenant)
		}
		if a.Served != b.Served {
			t.Errorf("%s served diverged", a.Tenant)
		}
	}
}

// TestClusterDeathLeavesUnserved: when every node fails, running jobs are
// requeued and everything still waiting is reported unserved instead of
// hanging the event loop.
func TestClusterDeathLeavesUnserved(t *testing.T) {
	cc := demoCluster()
	cc.Nodes = 1
	jobs := []JobSpec{
		{Tenant: "a", Script: scripts.LinregCG(), Scenario: datagen.New("XS", 1000, 1.0), Arrival: 0},
		{Tenant: "b", Script: scripts.LinregCG(), Scenario: datagen.New("XS", 1000, 1.0), Arrival: 100},
	}
	o := DefaultOptions()
	o.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{0}, At: 1}}
	rep, err := Run(cc, jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unserved != 2 {
		t.Fatalf("want 2 unserved tenants after total cluster loss, got %d", rep.Unserved)
	}
	for _, tn := range rep.Tenants {
		if tn.Served {
			t.Errorf("%s served on a dead cluster", tn.Tenant)
		}
	}
	if rep.Requeues != 1 {
		t.Errorf("want the running tenant requeued once, got %d", rep.Requeues)
	}
}

// TestValidation rejects degenerate inputs.
func TestValidation(t *testing.T) {
	cc := demoCluster()
	ok := JobSpec{Script: scripts.L2SVM(), Scenario: datagen.New("XS", 1000, 1.0)}
	cases := []struct {
		name string
		jobs []JobSpec
		o    Options
	}{
		{"empty", nil, DefaultOptions()},
		{"negative arrival", []JobSpec{{Script: scripts.L2SVM(), Scenario: datagen.New("XS", 1000, 1.0), Arrival: -1}}, DefaultOptions()},
		{"no program", []JobSpec{{Tenant: "x"}}, DefaultOptions()},
		{"failure out of range", []JobSpec{ok}, Options{Chaos: fault.ChaosPlan{Groups: []fault.GroupFailure{{Nodes: []int{9}, At: 1}}}}},
		{"failure negative time", []JobSpec{ok}, Options{Chaos: fault.ChaosPlan{Groups: []fault.GroupFailure{{Nodes: []int{0}, At: -1}}}}},
	}
	for _, c := range cases {
		if _, err := Run(cc, c.jobs, c.o); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
	if _, err := New(conf.Cluster{}, DefaultOptions()); err == nil {
		t.Error("invalid cluster: want error, got nil")
	}
}

// TestSubmitRejectsWhatRunRejects: one check guards both entry points, so
// a spec Run refuses Submit refuses too, with an error naming the job. NaN
// and +Inf arrivals once passed both and reached the report as times JSON
// cannot encode; a contradictory elastic spec once passed Submit and was
// silently normalized.
func TestSubmitRejectsWhatRunRejects(t *testing.T) {
	bad := func(edit func(*JobSpec)) JobSpec {
		spec := fixedWidthJob("bad", "XS", 0, 1)
		edit(&spec)
		return spec
	}
	for _, c := range []struct {
		name string
		spec JobSpec
	}{
		{"negative arrival", bad(func(j *JobSpec) { j.Arrival = -1 })},
		{"NaN arrival", bad(func(j *JobSpec) { j.Arrival = math.NaN() })},
		{"+Inf arrival", bad(func(j *JobSpec) { j.Arrival = math.Inf(1) })},
		{"-Inf arrival", bad(func(j *JobSpec) { j.Arrival = math.Inf(-1) })},
		{"no program", bad(func(j *JobSpec) { j.Script = scripts.Spec{} })},
		{"min above max", bad(func(j *JobSpec) { j.Elastic = ElasticSpec{MinContainers: 3, MaxContainers: 2} })},
		{"negative step", bad(func(j *JobSpec) { j.Elastic.Step = -1 })},
		{"negative width", bad(func(j *JobSpec) { j.Elastic.DesiredContainers = -2 })},
	} {
		if _, err := Run(demoCluster(), []JobSpec{c.spec}, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "bad") {
			t.Errorf("%s: Run error %v, want one naming the job", c.name, err)
		}
		s, err := New(demoCluster(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(c.spec); err == nil || !strings.Contains(err.Error(), "bad") {
			t.Errorf("%s: Submit error %v, want one naming the job", c.name, err)
		}
	}
}

// TestGenerateDeterministic: the seeded generator is a pure function of
// its arguments.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 12, 5)
	b := Generate(7, 12, 5)
	if len(a) != 12 {
		t.Fatalf("want 12 jobs, got %d", len(a))
	}
	for i := range a {
		if a[i].Tenant != b[i].Tenant || a[i].Script.Name != b[i].Script.Name ||
			a[i].Scenario != b[i].Scenario || a[i].Arrival != b[i].Arrival {
			t.Fatalf("job %d diverged between identical seeds", i)
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not monotone at job %d", i)
		}
	}
	c := Generate(8, 12, 5)
	same := true
	for i := range a {
		if a[i].Script.Name != c[i].Script.Name || a[i].Arrival != c[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

// TestLoadScenario parses the JSON workload format.
func TestLoadScenario(t *testing.T) {
	src := `{"jobs":[
		{"tenant":"acme","script":"LinregDS","size":"XS","cols":100,"sparsity":0.01,"arrival":3.5},
		{"script":"L2SVM"}
	]}`
	jobs, err := loadJobs(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d", len(jobs))
	}
	if jobs[0].Tenant != "acme" || jobs[0].Script.Name != "LinregDS" || jobs[0].Arrival != 3.5 {
		t.Errorf("job 0 parsed wrong: %+v", jobs[0])
	}
	if jobs[0].Scenario.Size != "XS" || jobs[0].Scenario.Cols != 100 || jobs[0].Scenario.Sparsity != 0.01 {
		t.Errorf("job 0 scenario parsed wrong: %+v", jobs[0].Scenario)
	}
	// Defaults: tenant name, S/1000/dense.
	if jobs[1].Tenant != "tenant-01" || jobs[1].Scenario.Size != "S" || jobs[1].Scenario.Cols != 1000 || jobs[1].Scenario.Sparsity != 1.0 {
		t.Errorf("job 1 defaults wrong: %+v", jobs[1])
	}

	for name, bad := range map[string]string{
		"unknown script": `{"jobs":[{"script":"Nope"}]}`,
		"no jobs":        `{"jobs":[]}`,
		"bad size":       `{"jobs":[{"script":"GLM","size":"XXL"}]}`,
		"unknown field":  `{"jobs":[{"script":"GLM","nope":1}]}`,
	} {
		if _, err := loadJobs(bad); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// loadJobs parses a run description and resolves its job list.
func loadJobs(src string) ([]JobSpec, error) {
	spec, err := LoadRunSpec(strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	return spec.JobSpecs()
}

// FuzzRunSpec: a run description is a file from outside the program, so no
// document may panic LoadRunSpec or the checks New and Run make of what it
// decoded. A document is refused with an error and no spec, or decodes to
// one that keeps LoadRunSpec's promises — no container above a node's
// memory, no negative retry budget. The checks of the cluster, the
// elastic tick, the chaos plan and the explicit jobs then answer an error
// or nil. A generator is asked for as many jobs as generate.tenants says,
// and New allocates per node, so neither runs here.
func FuzzRunSpec(f *testing.F) {
	err := fs.WalkDir(scenarios.FS, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		doc, err := scenarios.FS.ReadFile(path)
		f.Add(doc)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := LoadRunSpec(bytes.NewReader(doc))
		if err != nil {
			if s != nil {
				t.Fatalf("LoadRunSpec returned a spec with error %v", err)
			}
			return
		}
		if s.Cluster.MaxAlloc > s.Cluster.MemPerNode || s.Recovery.MaxRetries < 0 {
			t.Fatalf("decoded cluster %+v, retry budget %d", s.Cluster, s.Recovery.MaxRetries)
		}
		s.Options.normalized()
		if s.Cluster.Validate() != nil || s.Elastic.validate() != nil || s.Generate != nil {
			return
		}
		jobs, err := s.JobSpecs()
		if err != nil {
			return
		}
		if len(jobs) != len(s.Jobs) {
			t.Fatalf("%d jobs resolve to %d", len(s.Jobs), len(jobs))
		}
		_ = validate(jobs, s.Cluster.Nodes, s.Chaos)
	})
}

// TestRunSpecDefaultsAndOverrides: a run description is decoded over the
// demo cluster and the service defaults — what a file leaves out keeps its
// default, nested sections merge field by field — and the generate section
// selects the seeded generators.
func TestRunSpecDefaultsAndOverrides(t *testing.T) {
	spec, err := LoadRunSpec(strings.NewReader(`{
		"cluster": {"nodes": 4, "mem_per_node": "1GB"},
		"policy": "regret", "cache_entries": 32,
		"elastic": {"tick": 5},
		"recovery": {"kind": "naive", "max_retries": 5},
		"task_policy": {"speculative": false},
		"chaos": {"groups": [{"nodes": [1], "at": 25}]},
		"generate": {"kind": "burst", "tenants": 12, "seed": 42}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultRunSpec()
	want.Cluster.Nodes, want.Cluster.MemPerNode, want.Cluster.MaxAlloc = 4, conf.GB, conf.GB
	want.Policy, want.Elastic.Tick = PolicyRegret, 5
	want.CacheEntries = 32
	want.Recovery.Kind, want.Recovery.MaxRetries = RecoveryNaive, 5
	want.TaskPolicy.Speculative = false
	want.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{1}, At: 25}}
	want.Generate = &GenerateSpec{Kind: "burst", Tenants: 12, Seed: 42}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("decoded spec:\n got %+v\nwant %+v", spec, want)
	}
	if d := DefaultRunSpec(); !d.TaskPolicy.Speculative || d.Cluster.MaxAlloc != d.Cluster.MemPerNode {
		t.Errorf("demo defaults: %+v", d)
	}

	jobs, err := spec.JobSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, GenerateSkewedBurst(42, 12)) {
		t.Error("generate kind burst does not select GenerateSkewedBurst")
	}
	spec.Generate = &GenerateSpec{Kind: "minibatch", Tenants: 6, Seed: 7}
	if jobs, _ = spec.JobSpecs(); !reflect.DeepEqual(jobs, GenerateMinibatch(7, 6)) {
		t.Error("generate kind minibatch does not select GenerateMinibatch")
	}
	spec.Generate = &GenerateSpec{Tenants: 6, Seed: 7, MeanGap: 2}
	if jobs, _ = spec.JobSpecs(); !reflect.DeepEqual(jobs, Generate(7, 6, 2)) {
		t.Error("generate without a kind does not select Generate")
	}
}

// TestRunSpecRejectsRemovedKeys: keys the service does not read are
// unknown fields, so a description that sets one fails to load.
func TestRunSpecRejectsRemovedKeys(t *testing.T) {
	for name, doc := range map[string]string{
		"task_policy.max_attempts":    `{"task_policy": {"speculative": true, "max_attempts": 2}, "jobs": [{"script": "GLM"}]}`,
		"task_policy.speculative_cap": `{"task_policy": {"speculative": true, "speculative_cap": 2}, "jobs": [{"script": "GLM"}]}`,
	} {
		if spec, err := LoadRunSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: loaded as %+v, want an unknown-field error", name, spec.TaskPolicy)
		}
	}
}
