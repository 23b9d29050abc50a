package verify

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
)

// refTol is the relative per-cell tolerance against the naive reference
// interpreter. The production runtime and the reference use different
// kernels, reduction orders and elimination schemes, so exact bit equality
// is not expected there — only across production plans.
const refTol = 1e-6

// Options tunes a harness run.
type Options struct {
	// Trace, when non-nil, records compile and runtime spans of every
	// configuration run for Chrome trace export.
	Trace *obs.Tracer
}

// RunProgram executes one program under every configuration of
// DefaultConfigs plus the reference interpreter and returns the aggregated
// comparison result.
func RunProgram(p Program, o Options) ProgramResult {
	res := ProgramResult{Program: p.Name}
	var runs []*runOutput
	for _, cfg := range DefaultConfigs() {
		res.Configs = append(res.Configs, cfg.Name)
		r := runOne(p, cfg, o.Trace)
		res.Ops += r.ops
		res.Findings = append(res.Findings, r.findings...)
		if r.err != nil {
			res.Findings = append(res.Findings, Finding{
				Kind:    RunError,
				Program: p.Name,
				Config:  cfg.Name,
				Where:   "run",
				Detail:  r.err.Error(),
			})
			continue
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return res
	}

	base := runs[0]
	res.Outputs = len(base.paths)
	for _, other := range runs[1:] {
		compareRuns(&res, p.Name, base, other)
	}
	compareReference(&res, p, base)
	return res
}

// Run executes the whole program set and assembles the report.
func Run(programs []Program, o Options, progress func(ProgramResult)) *Report {
	rep := &Report{}
	for _, p := range programs {
		r := RunProgram(p, o)
		rep.Programs = append(rep.Programs, r)
		if progress != nil {
			progress(r)
		}
	}
	return rep
}

// runOutput is one configuration's observable result.
type runOutput struct {
	cfg      string
	paths    []string // sorted persistent-output paths under /out
	outputs  map[string]*matrix.Matrix
	prints   string
	ops      int
	findings []Finding
	err      error
}

func runOne(p Program, cfg Config, tr *obs.Tracer) (r *runOutput) {
	r = &runOutput{cfg: cfg.Name, outputs: map[string]*matrix.Matrix{}}
	defer func() {
		// A panic in the compiler or a kernel is a harness finding, not a
		// harness crash: record it and let the other configurations run.
		if rec := recover(); rec != nil {
			r.err = fmt.Errorf("panic: %v", rec)
		}
	}()

	fs := hdfs.New()
	if p.Setup != nil {
		p.Setup(fs)
	}
	prog, err := dml.Parse(p.Source)
	if err != nil {
		r.err = fmt.Errorf("parse: %w", err)
		return r
	}
	comp := hop.NewCompiler(fs, p.Params)
	hp, err := comp.Compile(prog, p.Source)
	if err != nil {
		r.err = fmt.Errorf("compile: %w", err)
		return r
	}

	cc := conf.DefaultCluster()
	if cfg.HDFSBlock > 0 {
		cc.HDFSBlockSize = cfg.HDFSBlock
	}
	var resources conf.Resources
	if cfg.Optimize {
		resources = opt.New(cc).Optimize(hp).Res
	} else {
		resources = conf.NewResources(cfg.CP, cfg.MR, hp.NumLeaf).WithCores(cfg.Cores)
	}

	plan := lop.Select(hp, cc, resources)
	ip := rt.New(rt.ModeValue, fs, cc, resources)
	ip.Compiler = comp
	if tr.Enabled() {
		ip.Trace = tr
	}
	var out bytes.Buffer
	ip.Out = &out
	aud := &auditor{program: p.Name, config: cfg.Name}
	ip.MemHook = aud.hook
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			r.err = fmt.Errorf("fault plan: %w", err)
			return r
		}
		ip.Faults = inj
	}
	if err := ip.Run(plan); err != nil {
		r.err = fmt.Errorf("run: %w", err)
		return r
	}

	r.ops = aud.ops
	r.findings = aud.findings
	r.prints = out.String()

	// The buffer pool's high-water mark must respect the CP budget, modulo
	// the pinning waiver: a single variable larger than the whole budget
	// stays resident (it cannot be split), so the peak may legitimately
	// reach the largest single admitted variable.
	budget := cc.OpBudget(resources.CP)
	if budget > 0 && ip.State.Peak > budget && ip.State.Peak > ip.State.MaxVar {
		r.findings = append(r.findings, Finding{
			Kind:     PoolOverPeak,
			Program:  p.Name,
			Config:   cfg.Name,
			Where:    "buffer pool",
			Detail:   fmt.Sprintf("resident peak %d B exceeds budget %d B beyond the pinned-variable waiver", ip.State.Peak, budget),
			Estimate: budget,
			Actual:   ip.State.Peak,
		})
	}

	for _, path := range fs.List() {
		if !strings.HasPrefix(path, "/out") {
			continue
		}
		f, err := fs.Stat(path)
		if err != nil || f.Data == nil {
			continue
		}
		r.paths = append(r.paths, path)
		r.outputs[path] = f.Data
	}
	sort.Strings(r.paths)
	return r
}

// compareRuns demands bit-identical outputs: all plans execute the same
// deterministic kernels over the same values, so any drift is a real
// plan-dependence bug.
func compareRuns(res *ProgramResult, prog string, base, other *runOutput) {
	if base.prints != other.prints {
		res.Findings = append(res.Findings, Finding{
			Kind:    CrossConfigMismatch,
			Program: prog,
			Config:  base.cfg + " vs " + other.cfg,
			Where:   "print stream",
			Detail:  fmt.Sprintf("print output differs:\n--- %s ---\n%s--- %s ---\n%s", base.cfg, base.prints, other.cfg, other.prints),
		})
	}
	if !sameStrings(base.paths, other.paths) {
		res.Findings = append(res.Findings, Finding{
			Kind:    CrossConfigMismatch,
			Program: prog,
			Config:  base.cfg + " vs " + other.cfg,
			Where:   "output set",
			Detail:  fmt.Sprintf("written paths differ: %v vs %v", base.paths, other.paths),
		})
		return
	}
	for _, path := range base.paths {
		a, b := base.outputs[path], other.outputs[path]
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
			res.Findings = append(res.Findings, Finding{
				Kind:    CrossConfigMismatch,
				Program: prog,
				Config:  base.cfg + " vs " + other.cfg,
				Where:   path,
				Detail:  fmt.Sprintf("dimensions differ: %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()),
			})
			continue
		}
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				d := ulpDist(a.At(i, j), b.At(i, j))
				if d == 0 {
					continue
				}
				if d > res.MaxULP {
					res.MaxULP = d
				}
				res.Findings = append(res.Findings, Finding{
					Kind:    CrossConfigMismatch,
					Program: prog,
					Config:  base.cfg + " vs " + other.cfg,
					Where:   fmt.Sprintf("%s[%d,%d]", path, i+1, j+1),
					Detail:  fmt.Sprintf("%v vs %v (%d ULP)", a.At(i, j), b.At(i, j), d),
				})
			}
		}
	}
}

func compareReference(res *ProgramResult, p Program, base *runOutput) {
	fs := hdfs.New()
	if p.Setup != nil {
		p.Setup(fs)
	}
	prog, err := dml.Parse(p.Source)
	if err != nil {
		res.Findings = append(res.Findings, refError(p.Name, err))
		return
	}
	hp, err := hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
	if err != nil {
		res.Findings = append(res.Findings, refError(p.Name, err))
		return
	}
	ref, err := RunReference(hp, fs)
	if err != nil {
		res.Findings = append(res.Findings, refError(p.Name, err))
		return
	}

	var refPaths []string
	for path := range ref.Writes {
		refPaths = append(refPaths, path)
	}
	sort.Strings(refPaths)
	if !sameStrings(base.paths, refPaths) {
		res.Findings = append(res.Findings, Finding{
			Kind:    ReferenceMismatch,
			Program: p.Name,
			Config:  base.cfg + " vs reference",
			Where:   "output set",
			Detail:  fmt.Sprintf("written paths differ: %v vs %v", base.paths, refPaths),
		})
		return
	}
	for _, path := range refPaths {
		got, want := base.outputs[path], ref.Writes[path]
		if got.Rows() != want.rows || got.Cols() != want.cols {
			res.Findings = append(res.Findings, Finding{
				Kind:    ReferenceMismatch,
				Program: p.Name,
				Config:  base.cfg + " vs reference",
				Where:   path,
				Detail:  fmt.Sprintf("dimensions differ: %dx%d vs %dx%d", got.Rows(), got.Cols(), want.rows, want.cols),
			})
			continue
		}
		for i := 0; i < want.rows; i++ {
			for j := 0; j < want.cols; j++ {
				g, w := got.At(i, j), want.at(i, j)
				if closeRel(g, w) {
					continue
				}
				res.Findings = append(res.Findings, Finding{
					Kind:    ReferenceMismatch,
					Program: p.Name,
					Config:  base.cfg + " vs reference",
					Where:   fmt.Sprintf("%s[%d,%d]", path, i+1, j+1),
					Detail:  fmt.Sprintf("runtime %v vs reference %v", g, w),
				})
			}
		}
	}
}

func refError(prog string, err error) Finding {
	return Finding{
		Kind:    RunError,
		Program: prog,
		Config:  "reference",
		Where:   "run",
		Detail:  err.Error(),
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closeRel reports whether two cells agree within the reference tolerance.
func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= refTol*scale
}

// ulpDist is the distance between two float64 values in units of least
// precision, using the standard order-preserving integer transform. NaNs
// with different payloads compare equal; NaN vs non-NaN is maximal.
func ulpDist(a, b float64) uint64 {
	if a == b {
		return 0
	}
	an, bn := math.IsNaN(a), math.IsNaN(b)
	if an && bn {
		return 0
	}
	if an != bn {
		return math.MaxUint64
	}
	ai, bi := orderedBits(a), orderedBits(b)
	if ai > bi {
		return ai - bi
	}
	return bi - ai
}

func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}
