package verify

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
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
// comparison result. It builds the program once, as the service builds a
// job: Setup into one file system, one parse, one compile. Every run then
// shares the compiled program, on a clone of the file system the program's
// compiler read and a fork of that compiler, so no run may change it: its
// key before the first run must equal its key after the reference run.
func RunProgram(p Program, o Options) ProgramResult {
	res := ProgramResult{Program: p.Name}
	cfgs := DefaultConfigs()
	for _, cfg := range cfgs {
		res.Configs = append(res.Configs, cfg.Name)
	}
	hp, err := compile(p)
	if err != nil {
		for _, cfg := range cfgs {
			res.Findings = append(res.Findings, runError(p.Name, cfg.Name, err))
		}
		return res
	}
	key := hop.AppendKey(nil, hp)

	var runs []*runOutput
	for _, cfg := range cfgs {
		r := run(hp, p.Name, cfg, o.Trace)
		res.Ops += r.ops
		res.Findings = append(res.Findings, r.findings...)
		if r.err != nil {
			res.Findings = append(res.Findings, runError(p.Name, cfg.Name, r.err))
			continue
		}
		runs = append(runs, r)
	}
	if len(runs) > 0 {
		// Plans execute the same deterministic kernels over the same
		// values, so any drift between two of them is a real
		// plan-dependence bug; the reference only has to agree within
		// refTol.
		base := runs[0]
		res.Outputs = len(base.paths)
		exact := func(a, b float64) bool {
			d := ulpDist(a, b)
			res.MaxULP = max(res.MaxULP, d)
			return d == 0
		}
		for _, other := range runs[1:] {
			compare(&res, CrossConfigMismatch, base, other, exact)
		}
		if ref := reference(hp); ref.err != nil {
			res.Findings = append(res.Findings, runError(p.Name, ref.cfg, ref.err))
		} else {
			compare(&res, ReferenceMismatch, base, ref, closeRel)
		}
	}
	if !bytes.Equal(key, hop.AppendKey(nil, hp)) {
		res.Findings = append(res.Findings, Finding{
			Kind:    SharedProgramChanged,
			Program: p.Name,
			Config:  "all runs",
			Where:   "compiled program",
			Detail:  "its key after the reference run differs from its key before the first run",
		})
	}
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

// compile stages p's inputs into a new file system and builds the program
// every run of p shares. The program's compiler keeps that file system
// (Compiler.FS); a run writes to a clone of it, over which Run forks the
// compiler, and changes neither the program nor the staged files.
func compile(p Program) (hp *hop.Program, err error) {
	defer recovered(&err)
	fs := hdfs.New()
	if p.Setup != nil {
		p.Setup(fs)
	}
	prog, err := dml.Parse(p.Source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if hp, err = hop.NewCompiler(fs, p.Params).Compile(prog, p.Source); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return hp, nil
}

// recovered turns a panic in the compiler, a kernel or the reference into
// the error of the run it ended: a harness finding, not a harness crash.
func recovered(err *error) {
	if rec := recover(); rec != nil {
		*err = fmt.Errorf("panic: %v", rec)
	}
}

// runOutput is one run's observable result.
type runOutput struct {
	cfg      string
	paths    []string // sorted persistent-output paths under /out
	outputs  map[string]*matrix.Matrix
	prints   string
	ops      int
	findings []Finding
	err      error
}

func run(hp *hop.Program, prog string, cfg Config, tr *obs.Tracer) (r *runOutput) {
	r = &runOutput{cfg: cfg.Name, outputs: map[string]*matrix.Matrix{}}
	defer recovered(&r.err)

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

	fs := hp.Compiler().FS.Clone()
	plan := lop.Select(hp, cc, resources)
	ip := rt.New(rt.ModeValue, fs, cc, resources)
	ip.Trace = tr
	var out bytes.Buffer
	ip.Out = &out
	aud := &auditor{program: prog, config: cfg.Name}
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
			Program:  prog,
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

// reference evaluates the compiled program with the naive reference
// interpreter on a clone of the staged file system.
func reference(hp *hop.Program) (r *runOutput) {
	r = &runOutput{cfg: "reference", outputs: map[string]*matrix.Matrix{}}
	defer recovered(&r.err)
	ref, err := RunReference(hp, hp.Compiler().FS.Clone())
	if err != nil {
		r.err = err
		return r
	}
	for path, m := range ref.Writes {
		r.paths = append(r.paths, path)
		r.outputs[path] = matrix.NewDenseData(m.rows, m.cols, m.a)
	}
	sort.Strings(r.paths)
	for _, line := range ref.Prints {
		r.prints += line + "\n"
	}
	return r
}

// compare appends a finding of the given kind for every way run b's
// observable result differs from run a's: the print stream line by line,
// the set of written paths, and each output's dimensions and cells. same
// decides whether two numbers agree, cells and numeric print lines alike.
func compare(res *ProgramResult, kind FindingKind, a, b *runOutput, same func(x, y float64) bool) {
	add := func(where, detail string) {
		res.Findings = append(res.Findings, Finding{
			Kind:    kind,
			Program: res.Program,
			Config:  a.cfg + " vs " + b.cfg,
			Where:   where,
			Detail:  detail,
		})
	}
	la, lb := strings.Split(a.prints, "\n"), strings.Split(b.prints, "\n")
	if len(la) != len(lb) {
		add("print stream", fmt.Sprintf("print output differs:\n--- %s ---\n%s--- %s ---\n%s", a.cfg, a.prints, b.cfg, b.prints))
	} else {
		for i := range la {
			if !sameLine(la[i], lb[i], same) {
				add(fmt.Sprintf("print line %d", i+1), fmt.Sprintf("%q vs %q", la[i], lb[i]))
			}
		}
	}
	if !slices.Equal(a.paths, b.paths) {
		add("output set", fmt.Sprintf("written paths differ: %v vs %v", a.paths, b.paths))
		return
	}
	for _, path := range a.paths {
		x, y := a.outputs[path], b.outputs[path]
		if x.Rows() != y.Rows() || x.Cols() != y.Cols() {
			add(path, fmt.Sprintf("dimensions differ: %dx%d vs %dx%d", x.Rows(), x.Cols(), y.Rows(), y.Cols()))
			continue
		}
		for i := 0; i < x.Rows(); i++ {
			for j := 0; j < x.Cols(); j++ {
				if u, v := x.At(i, j), y.At(i, j); !same(u, v) {
					add(fmt.Sprintf("%s[%d,%d]", path, i+1, j+1), fmt.Sprintf("%v vs %v (%d ULP)", u, v, ulpDist(u, v)))
				}
			}
		}
	}
}

// number matches a number as strconv.FormatFloat prints it.
var number = regexp.MustCompile(`[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|Inf|NaN)`)

// sameLine reports whether two print lines agree: the same text around
// their numbers, and numbers that same accepts.
func sameLine(a, b string, same func(x, y float64) bool) bool {
	if a == b {
		return true
	}
	if !slices.Equal(number.Split(a, -1), number.Split(b, -1)) {
		return false
	}
	return slices.EqualFunc(number.FindAllString(a, -1), number.FindAllString(b, -1), func(u, v string) bool {
		x, _ := strconv.ParseFloat(u, 64)
		y, _ := strconv.ParseFloat(v, 64)
		return same(x, y)
	})
}

func runError(prog, cfg string, err error) Finding {
	return Finding{
		Kind:    RunError,
		Program: prog,
		Config:  cfg,
		Where:   "run",
		Detail:  err.Error(),
	}
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
