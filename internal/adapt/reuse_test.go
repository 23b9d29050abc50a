package adapt

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// consult is what one Adapt call decided, and from what search answer.
type consult struct {
	Trigger  rt.Trigger
	Decision string // migrate, adopt-global or keep-local; empty without a decision
	NewRes   conf.Resources
	Extra    float64
	// Global and Local are the costs of the search answer a decision used:
	// the global optimum and the optimum at the current CP.
	Global, Local float64
}

// recorder logs every consult of the adapter it wraps, and whether the
// consult ran a fresh search.
type recorder struct {
	ad       *Adapter
	inner    rt.Adapter
	consults []consult
	fresh    []bool
}

func (r *recorder) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	cp, before := ctx.Res.CP, r.ad.Stats
	dec := r.inner.Adapt(ctx)
	c := consult{Trigger: ctx.Trigger}
	if dec != nil {
		c.Decision, c.NewRes, c.Extra = "keep-local", dec.NewRes.Clone(), dec.ExtraTime
		c.Global, c.Local = r.ad.last.global.Cost, r.ad.last.local.Cost
		if dec.Migrate {
			c.Decision = "migrate"
		} else if dec.NewRes.CP != cp {
			c.Decision = "adopt-global"
		}
	}
	r.consults = append(r.consults, c)
	r.fresh = append(r.fresh, r.ad.Stats.Reoptimizations > before.Reoptimizations &&
		r.ad.Stats.ReoptReuses == before.ReoptReuses)
	return dec
}

// searches counts the consults that ran OptimizeWithCurrent.
func (r *recorder) searches() int { return r.ad.Stats.Reoptimizations - r.ad.Stats.ReoptReuses }

// problem is what the adapter tests run: a named program that stages its
// inputs and compiles afresh for each run.
type problem interface {
	String() string
	compile(t testing.TB) (*hdfs.FS, *hop.Program)
}

// paperProblem is one problem of the paper's evaluation grid.
type paperProblem struct {
	spec scripts.Spec
	scen datagen.Scenario
}

func (p paperProblem) String() string {
	return fmt.Sprintf("%s %s %s", p.spec.Name, p.scen.Size, p.scen.ShapeName())
}

// paperGrid is the paper's evaluation grid: 5 scripts x 5 sizes x 4 shapes.
func paperGrid() []paperProblem {
	var out []paperProblem
	for _, spec := range scripts.All() {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				out = append(out, paperProblem{spec, datagen.New(size, sh.Cols, sh.Sparsity)})
			}
		}
	}
	return out
}

// What `elastic-run -optimize -adapt` uses: 20 classes and the adapter's
// default charge per re-optimization.
const (
	gridClasses = 20
	gridCharge  = DefaultOptCharge
)

func (p paperProblem) compile(t testing.TB) (*hdfs.FS, *hop.Program) {
	t.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, p.scen)
	prog, err := dml.Parse(p.spec.Source)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	hp, err := hop.NewCompiler(fs, p.spec.Params).Compile(prog, p.spec.Source)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return fs, hp
}

// optimized returns p's initial R* on the default cluster.
func optimized(t testing.TB, p problem) conf.Resources {
	_, hp := p.compile(t)
	return opt.New(conf.DefaultCluster()).Optimize(hp).Res
}

// runProblem simulates p from res with a new adapter, which tweak (if set)
// configures and wrap (if set) wraps with the run's interpreter at hand,
// and records its consults.
func runProblem(t testing.TB, p problem, res conf.Resources,
	tweak func(*Adapter, *rt.Interp), wrap func(*Adapter, *rt.Interp) rt.Adapter) (*rt.Interp, *recorder) {
	t.Helper()
	fs, hp := p.compile(t)
	cc := conf.DefaultCluster()
	ip := rt.New(rt.ModeSim, fs, cc, res.Clone())
	ip.SimTableCols = gridClasses
	ad := New(cc)
	ad.OptCharge = gridCharge
	rec := &recorder{ad: ad, inner: ad}
	if tweak != nil {
		tweak(ad, ip)
	}
	if wrap != nil {
		rec.inner = wrap(ad, ip)
	}
	ip.Adapter = rec
	if err := ip.Run(lop.Select(hp, cc, res)); err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return ip, rec
}

// TestReoptReuseMatchesFresh runs every problem of the paper's grid twice,
// reusing the kept rebuild and search and answering costings from cost
// cells, and rebuilding the scope and searching afresh on every consult
// with every costing walked, and requires the same run and the same
// consults bit for bit.
func TestReoptReuseMatchesFresh(t *testing.T) {
	consults, rebuilds, searches := 0, 0, 0
	for _, p := range paperGrid() {
		rec := reuseMatchesFresh(t, p, optimized(t, p), nil)
		// MLogreg L dense100 searches at its first three consults (three
		// scopes) and once more when B's nnz becomes known after the
		// first outer iteration. It rebuilds at the first consult of each
		// scope and at the first of each later outer iteration, when
		// outer_iter, which is live at the loop's start, has moved on.
		n := [3]int{len(rec.consults), rec.ad.Stats.ScopeRebuilds, rec.searches()}
		if p.String() == "MLogreg L dense100" && n != [3]int{32, 7, 4} {
			t.Errorf("%s: %d consults, %d rebuilds, %d fresh searches; want 32, 7 and 4", p, n[0], n[1], n[2])
		}
		consults += n[0]
		rebuilds += n[1]
		searches += n[2]
	}
	if consults != 261 || rebuilds != 61 || searches != 37 {
		t.Errorf("grid: %d consults, %d rebuilds, %d fresh searches; want 261, 61 and 37", consults, rebuilds, searches)
	}
}

// reuseMatchesFresh runs p from res with reuse and with a fresh search
// that walks every costing on every consult, requires both to run and
// decide identically, and returns the reuse run's consults.
func reuseMatchesFresh(t *testing.T, p problem, res conf.Resources, tweak func(*Adapter, *rt.Interp)) *recorder {
	t.Helper()
	ip, rec := runProblem(t, p, res, tweak, nil)
	restore := opt.WalkEveryCosting()
	ref, refRec := runProblem(t, p, res, tweak, func(a *Adapter, _ *rt.Interp) rt.Adapter { return freshEveryConsult{a} })
	restore()
	if refRec.ad.Stats.ReoptReuses != 0 {
		t.Fatalf("%s: the fresh reference reused %d searches", p, refRec.ad.Stats.ReoptReuses)
	}
	if ip.SimTime != ref.SimTime || !reflect.DeepEqual(ip.Stats, ref.Stats) || !reflect.DeepEqual(ip.Res, ref.Res) {
		t.Errorf("%s: reuse ran %v s %+v ending %s, fresh %v s %+v ending %s",
			p, ip.SimTime, ip.Stats, ip.Res.Detailed(), ref.SimTime, ref.Stats, ref.Res.Detailed())
	}
	if !reflect.DeepEqual(rec.consults, refRec.consults) {
		t.Errorf("%s: consults differ\nreuse %+v\nfresh %+v", p, rec.consults, refRec.consults)
	}
	return rec
}

// TestReoptReuseUnderNodeFailure loses a node halfway through MLogreg L
// dense100: the container-loss consult searches afresh, and the run still
// matches the fresh-every-consult reference.
func TestReoptReuseUnderNodeFailure(t *testing.T) {
	p := paperProblem{scripts.MLogreg(), datagen.New("L", 100, 1.0)}
	res := optimized(t, p)
	healthy, _ := runProblem(t, p, res, nil, nil)
	rec := reuseMatchesFresh(t, p, res, func(_ *Adapter, ip *rt.Interp) {
		ip.Faults = fault.MustInjector(fault.Plan{Seed: 1,
			NodeFailures: []fault.NodeFailure{{Node: 0, At: healthy.SimTime / 2}}})
	})
	losses := 0
	for i, c := range rec.consults {
		if c.Trigger != rt.TriggerContainerLoss {
			continue
		}
		losses++
		if i < 2 || !rec.fresh[i] {
			t.Errorf("container-loss consult %d of %d: fresh=%v; want a fresh search mid-loop", i, len(rec.consults), rec.fresh[i])
		}
	}
	if losses != 1 {
		t.Errorf("%d container-loss consults, want 1", losses)
	}
}

// TestReusedConsultTrace pins what a reused consult leaves in a trace: an
// adapt.reoptimize span with reused=true and the adapt.reopt_reuses
// counter, but no opt.grid-search span and no opt.* counter.
func TestReusedConsultTrace(t *testing.T) {
	ctx, cc := adaptedContext(t)
	tr := obs.New(true)
	ad := New(cc)
	ad.Opt.Points = 7
	ad.OptCharge = 0
	ad.Trace = tr
	ad.Adapt(ctx)
	ad.Adapt(ctx)
	m := tr.Metrics()
	if got := tr.SpanTotals(obs.LayerAdapt)["adapt.reoptimize"].Count; got != 2 {
		t.Errorf("%d adapt.reoptimize spans, want 2", got)
	}
	if got := tr.SpanTotals(obs.LayerOptimize)["opt.grid-search"].Count; got != 1 || m.Counter("opt.runs") != 1 {
		t.Errorf("%d grid-search spans and %d opt.runs; want 1 each", got, m.Counter("opt.runs"))
	}
	if m.Counter("adapt.reoptimizations") != 2 || m.Counter("adapt.reopt_reuses") != 1 {
		t.Errorf("adapt.reoptimizations %d, adapt.reopt_reuses %d; want 2 and 1",
			m.Counter("adapt.reoptimizations"), m.Counter("adapt.reopt_reuses"))
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{`"reused":false`, `"reused":true`} {
		if n := bytes.Count(buf.Bytes(), []byte(arg)); n != 1 {
			t.Errorf("%d spans carry %s, want 1", n, arg)
		}
	}
}

// TestReoptReuseRefused replays a genuine MLogreg L dense100 consult twice.
// Unchanged, or with only an option the answer does not depend on changed,
// the second consult reuses the first one's search; under each change that
// can alter the search's answer, it must search afresh — an option changed
// in place included, so the kept search must not alias the adapter's
// options. The second consult rebuilds the scope exactly when a variable
// live at the scope's start changed or the scope reads a file, and it
// answers what a fresh adapter answers.
func TestReoptReuseRefused(t *testing.T) {
	p := paperProblem{scripts.MLogreg(), datagen.New("L", 100, 1.0)}
	res := optimized(t, p)
	capture := func(at int, tweak func(*Adapter, *rt.Interp)) *rt.AdaptContext {
		capt := &captureAdapter{at: at}
		runProblem(t, p, res, tweak, func(a *Adapter, ip *rt.Interp) rt.Adapter {
			capt.inner, capt.ip = a, ip
			return capt
		})
		return capt.ctx
	}
	// The first consult; a repeat inside the main loop, whose scope starts
	// at the outer loop; and a container-loss consult before the first
	// block, whose scope is the whole script, read($X) included.
	first, inLoop := capture(0, nil), capture(3, nil)
	atStart := capture(0, func(_ *Adapter, ip *rt.Interp) {
		ip.Faults = fault.MustInjector(fault.Plan{Seed: 1, NodeFailures: []fault.NodeFailure{{Node: 0, At: 0}}})
	})
	live := hop.LiveIn(mustSources(t, scope(inLoop)))
	for name, want := range map[string]bool{"outer_iter": true, "inner_iter": false, "V": false} {
		_, bound := inLoop.Vars.Meta(name)
		if got := slices.Contains(live, name); !bound || got != want {
			t.Fatalf("%s: bound %v, live at the loop's start %v; want bound and %v", name, bound, got, want)
		}
	}
	// set replaces a replayed consult's variables with a copy holding m
	// for name; the captured consult's table stays as it was.
	set := func(c *rt.AdaptContext, name string, m hop.VarMeta) {
		vars := c.Vars.(hop.SymTab).Clone()
		vars[name] = m
		c.Vars = vars
	}
	meta := func(name string, f func(*hop.VarMeta)) func(*rt.AdaptContext) {
		return func(c *rt.AdaptContext) {
			m, _ := c.Vars.Meta(name)
			f(&m)
			set(c, name, m)
		}
	}
	rows := []struct {
		name    string
		from    *rt.AdaptContext       // the consult replayed; first when nil
		before  func(*Adapter)         // applied before the first consult
		change  func(*rt.AdaptContext) // applied to the second consult
		between func(*Adapter)         // applied between the two consults
		reused  bool                   // the second consult reuses the search
		rebuilt bool                   // the second consult rebuilds the scope
	}{
		{"unchanged", nil, nil, nil, nil, true, false},
		{"node failure (container-loss trigger, shrunken cluster)", nil, nil, func(c *rt.AdaptContext) {
			c.Trigger = rt.TriggerContainerLoss
			c.CC.Nodes--
		}, nil, false, false},
		{"cluster load changes between consults", nil, nil, nil, func(a *Adapter) { a.Opt.ClusterLoad = 0.2 }, false, false},
		{"after a migration (current CP changed)", nil, nil, func(c *rt.AdaptContext) {
			c.Res = c.Res.Clone()
			c.Res.CP *= 2
		}, nil, false, false},
		{"optimizer workers change (the result does not)", nil, nil, nil, func(a *Adapter) { a.Opt.Workers = 4 }, true, false},
		{"grid points change", nil, nil, nil, func(a *Adapter) { a.Opt.Points++ }, false, false},
		{"core candidates change in place", nil, func(a *Adapter) { a.Opt.CPCoreCandidates = []int{1, 2} }, nil,
			func(a *Adapter) { a.Opt.CPCoreCandidates[1] = 4 }, false, false},
		{"a live-in variable changes (the rebuilt program does not)", inLoop, nil,
			meta("outer_iter", func(m *hop.VarMeta) { m.Val++ }), nil, true, true},
		{"only variables outside the live-in set change", inLoop, nil, func(c *rt.AdaptContext) {
			meta("inner_iter", func(m *hop.VarMeta) { m.Val++ })(c)
			meta("V", func(m *hop.VarMeta) { m.NNZ /= 2 })(c)
			set(c, "unbound", hop.VarMeta{Known: true, Val: 1})
		}, nil, true, false},
		{"the scope calls read(...)", atStart, nil, nil, nil, true, true},
	}
	for _, row := range rows {
		from := row.from
		if from == nil {
			from = first
		}
		adapter := func() *Adapter {
			ad := New(conf.DefaultCluster())
			ad.OptCharge = gridCharge
			if row.before != nil {
				row.before(ad)
			}
			return ad
		}
		ad := adapter()
		second := *from
		if row.change != nil {
			row.change(&second)
		}
		if ad.Adapt(from) == nil {
			t.Fatalf("%s: no decision", row.name)
		}
		if row.between != nil {
			row.between(ad)
		}
		fresh := adapter()
		if row.between != nil {
			row.between(fresh)
		}
		got, want := ad.Adapt(&second), fresh.Adapt(&second)
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: second consult decided %+v, a fresh adapter %+v", row.name, got, want)
		}
		if reused := ad.Stats.ReoptReuses == 1; reused != row.reused || ad.Stats.Reoptimizations != 2 {
			t.Errorf("%s: %d consults, %d reused; want the second reused: %v",
				row.name, ad.Stats.Reoptimizations, ad.Stats.ReoptReuses, row.reused)
		}
		if rebuilt := ad.Stats.ScopeRebuilds == 2; rebuilt != row.rebuilt || ad.Stats.ScopeRebuilds == 0 {
			t.Errorf("%s: %d scope rebuilds; want the second rebuilt: %v", row.name, ad.Stats.ScopeRebuilds, row.rebuilt)
		}
	}
}

// mustSources returns the statement blocks of a scope.
func mustSources(t *testing.T, blocks []*hop.Block) []*dml.StatementBlock {
	t.Helper()
	srcs, err := hop.Sources(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// BenchmarkAdaptRepeat is one MLogreg L dense100 run with the adapter: 32
// consults, of which 7 rebuild the scope program (the first consult of
// each of three scopes, then one per outer iteration, when outer_iter has
// moved on) and only the 4 whose scope program changed search.
func BenchmarkAdaptRepeat(b *testing.B) {
	p := paperProblem{scripts.MLogreg(), datagen.New("L", 100, 1.0)}
	res := optimized(b, p)
	consults, rebuilds, fresh := 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rec := runProblem(b, p, res, nil, nil)
		consults += len(rec.consults)
		rebuilds += rec.ad.Stats.ScopeRebuilds
		fresh += rec.searches()
	}
	b.StopTimer()
	perOp := func(n int) float64 { return float64(n) / float64(b.N) }
	if perOp(fresh) > 4 || perOp(rebuilds) > 7 || perOp(consults) < 30 {
		b.Fatalf("%.1f consults/op, %.1f rebuilds/op and %.1f fresh/op; want ≥ 30, ≤ 7 and ≤ 4",
			perOp(consults), perOp(rebuilds), perOp(fresh))
	}
	b.ReportMetric(perOp(consults), "consults/op")
	b.ReportMetric(perOp(rebuilds), "rebuilds/op")
	b.ReportMetric(perOp(fresh), "fresh/op")
}
