package main

import (
	"bytes"
	"fmt"
	"math"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// The bare pipeline: the decision path called stage by stage from here,
// with a span around every call into a layer. opt_sweep times it as its
// op; the serve workloads replay their job stream on it as ring L0.

// compiled is one program compiled against one scenario's descriptors.
type compiled struct {
	fs     *hdfs.FS
	comp   *hop.Compiler
	hp     *hop.Program
	inputs []opt.InputMeta // what the plan-cache key covers; serveCompile fills it
}

// compile runs describe -> parse -> compile, as elastic-run and the
// workload service both do before they optimize.
func compile(tr *tracer, parent, op int, spec scripts.Spec, scen datagen.Scenario) (*compiled, error) {
	c := &compiled{fs: hdfs.New()}
	s := tr.begin("datagen.describe", parent, op)
	datagen.Describe(c.fs, scen)
	tr.end(s)

	s = tr.begin("dml.parse", parent, op)
	prog, err := dml.Parse(spec.Source)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", spec.Name, err)
	}

	s = tr.begin("hop.compile", parent, op)
	c.comp = hop.NewCompiler(c.fs, spec.Params)
	c.hp, err = c.comp.Compile(prog, spec.Source)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", spec.Name, err)
	}
	return c, nil
}

// irSize counts the HOPs reachable from the program's leaf blocks.
func irSize(hp *hop.Program) (nodes, leaves int) {
	for _, b := range hp.LeafBlocks() {
		leaves++
		hop.WalkDAG(b.Roots, func(*hop.Hop) { nodes++ })
	}
	return nodes, leaves
}

// sweepOptCharge is the fixed simulated time charged per runtime
// re-optimization, so that simulated results do not depend on wall time.
const sweepOptCharge = 0.1

// sweepClasses is elastic-run's default label cardinality.
const sweepClasses = 20

// decision is what one offline pipeline decided and did.
type decision struct {
	Res        conf.Resources
	Cost       float64
	Stats      opt.Stats
	Reopts     int
	Migrations int
	MRJobsRun  int
	MRJobsPlan int
	SimSeconds float64
}

// runPipeline is one opt_sweep op: what `elastic-run -optimize -adapt`
// does for one problem.
func runPipeline(tr *tracer, op int, cc conf.Cluster, p problem) (decision, error) {
	var d decision
	root := tr.begin("pipeline", -1, op)
	defer tr.end(root)

	c, err := compile(tr, root, op, p.Script, p.Scen)
	if err != nil {
		return d, err
	}

	s := tr.begin("opt.optimize", root, op)
	r := opt.New(cc).Optimize(c.hp)
	tr.end(s)
	d.Res, d.Cost = r.Res, r.Cost

	s = tr.begin("lop.select", root, op)
	plan := lop.Select(c.hp, cc, r.Res)
	tr.end(s)
	d.MRJobsPlan = lop.NumMRJobs(plan.Blocks)

	s = tr.begin("rt.run", root, op)
	ip := rt.New(rt.ModeSim, c.fs, cc, r.Res)
	ip.Compiler = c.comp
	ip.SimTableCols = sweepClasses
	ad := adapt.New(cc)
	ad.OptCharge = sweepOptCharge
	ip.Adapter = ad
	err = ip.Run(plan)
	ad.Release()
	d.Reopts, d.Migrations = ad.Stats.Reoptimizations, ad.Stats.Migrations
	tr.end(s)
	if err != nil {
		return d, fmt.Errorf("run %s: %w", p, err)
	}
	d.MRJobsRun = ip.Stats.MRJobs
	return d, nil
}

// checkDecision applies opt_sweep's per-op correctness rules against the
// reference decision recorded during set-up.
func checkDecision(cc conf.Cluster, d decision, ref reference) error {
	if !sameRes(d.Res, ref.Res) || d.Cost != ref.Cost {
		return fmt.Errorf("decision %s/%.6g differs from reference %s/%.6g", d.Res.Detailed(), d.Cost, ref.Res.Detailed(), ref.Cost)
	}
	for _, heap := range append([]conf.Bytes{d.Res.CP}, d.Res.MR...) {
		if heap < cc.MinHeap() || heap > cc.MaxHeap() {
			return fmt.Errorf("heap %s of %s outside [%s, %s]", heap, d.Res.Detailed(), cc.MinHeap(), cc.MaxHeap())
		}
	}
	if !(d.Cost > 0) || math.IsInf(d.Cost, 0) {
		return fmt.Errorf("cost %g not finite and positive", d.Cost)
	}
	return nil
}

func sameRes(a, b conf.Resources) bool {
	if a.CP != b.CP || a.Cores() != b.Cores() || len(a.MR) != len(b.MR) {
		return false
	}
	for i := range a.MR {
		if a.MR[i] != b.MR[i] {
			return false
		}
	}
	return true
}

// baseline is one of the paper's four static configurations.
type baseline struct {
	Name   string
	CP, MR conf.Bytes
}

func baselines(cc conf.Cluster) []baseline {
	small, largeCP, largeMR := 512*conf.MB, cc.MaxHeap(), conf.BytesOfGB(4.4)
	return []baseline{
		{"B-SS", small, small}, {"B-LS", largeCP, small},
		{"B-SL", small, largeMR}, {"B-LL", largeCP, largeMR},
	}
}

// reference is the decision set-up recorded for one problem, and how it
// compares with the best static baseline under the same cost model.
type reference struct {
	Res          conf.Resources
	Cost         float64
	PlanCost     float64
	BestBaseline string
	BaselineCost float64
	Costings     int
	BlockComps   int
}

// planCost costs the runtime plan the program gets under res.
func planCost(hp *hop.Program, cc conf.Cluster, res conf.Resources) float64 {
	return cost.NewEstimator(cc).ProgramCost(lop.Select(hp, cc, res))
}

// buildReference optimizes one problem twice (the two results must agree)
// and costs the chosen and the four static configurations.
func buildReference(cc conf.Cluster, p problem) (reference, error) {
	var ref reference
	c, err := compile(nil, -1, 0, p.Script, p.Scen)
	if err != nil {
		return ref, err
	}
	r1 := opt.New(cc).Optimize(c.hp)
	r2 := opt.New(cc).Optimize(c.hp)
	if !sameRes(r1.Res, r2.Res) || r1.Cost != r2.Cost {
		return ref, fmt.Errorf("%s: two Optimize calls disagree: %s/%g vs %s/%g", p, r1.Res.Detailed(), r1.Cost, r2.Res.Detailed(), r2.Cost)
	}
	ref.Res, ref.Cost = r1.Res, r1.Cost
	ref.Costings, ref.BlockComps = r1.Stats.Costings, r1.Stats.BlockCompilations
	ref.PlanCost = planCost(c.hp, cc, r1.Res)
	if !(ref.PlanCost > 0) || math.IsInf(ref.PlanCost, 0) {
		return ref, fmt.Errorf("%s: ProgramCost %g not finite and positive", p, ref.PlanCost)
	}
	ref.BaselineCost = math.Inf(1)
	for _, b := range baselines(cc) {
		if bc := planCost(c.hp, cc, conf.NewResources(b.CP, b.MR, c.hp.NumLeaf)); bc < ref.BaselineCost {
			ref.BestBaseline, ref.BaselineCost = b.Name, bc
		}
	}
	return ref, nil
}

// serveCompile compiles a daemon job the way the workload service does:
// like compile, and then it lists the input descriptors for the cache key.
func serveCompile(tr *tracer, parent, op int, spec scripts.Spec, scen datagen.Scenario) (*compiled, error) {
	c, err := compile(tr, parent, op, spec, scen)
	if err != nil {
		return nil, err
	}
	for _, name := range c.fs.List() {
		f, err := c.fs.Stat(name)
		if err != nil {
			continue
		}
		c.inputs = append(c.inputs, opt.InputMeta{Path: name, Rows: f.Rows, Cols: f.Cols, NNZ: f.NNZ, Format: f.Format.String()})
	}
	return c, nil
}

// serveOptions are the optimizer options workload.DefaultOptions implies.
func serveOptions() opt.Options {
	o := opt.DefaultOptions()
	o.Points = 7
	o.Workers = 1
	return o
}

// serveSimCols is workload.DefaultOptions().SimTableCols.
const serveSimCols = 2

// barePipeline replays daemon jobs with no service around them: the stages
// one admission runs, against a plan cache and memo store of their own.
type barePipeline struct {
	cc    conf.Cluster
	cache opt.PlanCache
	memos *opt.MemoStore
	opts  opt.Options

	counts pipelineCounts
}

// pipelineCounts are the work counters of the jobs a barePipeline ran.
type pipelineCounts struct {
	costings, blockComps, mrJobsPlan, mrJobsRun int
}

func (c *pipelineCounts) add(o pipelineCounts) {
	c.costings += o.costings
	c.blockComps += o.blockComps
	c.mrJobsPlan += o.mrJobsPlan
	c.mrJobsRun += o.mrJobsRun
}

func newBarePipeline(cc conf.Cluster) *barePipeline {
	return &barePipeline{cc: cc, cache: opt.NewSharded(0, 0), memos: opt.NewMemoStore(0), opts: serveOptions()}
}

// run executes one job's stages.
func (b *barePipeline) run(tr *tracer, op int, spec scripts.Spec, scen datagen.Scenario) error {
	root := tr.begin("pipeline", -1, op)
	defer tr.end(root)
	c, err := serveCompile(tr, root, op, spec, scen)
	if err != nil {
		return err
	}
	s := tr.begin("opt.cache_key", root, op)
	key := opt.CacheKey(spec.Source, spec.Params, c.inputs, b.cc, b.opts)
	tr.end(s)

	s = tr.begin("opt.cache_lookup", root, op)
	res, _, hit := b.cache.Lookup(key)
	tr.end(s)
	if !hit {
		s = tr.begin("opt.optimize", root, op)
		o := &opt.Optimizer{CC: b.cc, Opts: b.opts}
		r := o.OptimizeMemo(c.hp, b.memos.Get(opt.MemoKey(spec.Source, spec.Params, c.inputs, b.opts)))
		tr.end(s)
		b.cache.Insert(key, r.Res, r.Cost)
		res = r.Res
		b.counts.costings += r.Stats.Costings
		b.counts.blockComps += r.Stats.BlockCompilations
	}

	s = tr.begin("lop.select", root, op)
	plan := lop.Select(c.hp, b.cc, res)
	tr.end(s)
	b.counts.mrJobsPlan += lop.NumMRJobs(plan.Blocks)

	s = tr.begin("rt.run", root, op)
	ip := rt.New(rt.ModeSim, c.fs, b.cc, res)
	ip.Compiler = c.comp
	ip.SimTableCols = serveSimCols
	var out bytes.Buffer
	ip.Out = &out
	err = ip.Run(plan)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("run %s: %w", spec.Name, err)
	}
	b.counts.mrJobsRun += ip.Stats.MRJobs
	return nil
}
