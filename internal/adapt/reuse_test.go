package adapt

import (
	"bytes"
	"fmt"
	"reflect"
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

// consult is what one Adapt call decided.
type consult struct {
	Trigger  rt.Trigger
	Decision string // migrate, adopt-global or keep-local; empty without a decision
	NewRes   conf.Resources
	Extra    float64
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

// What `elastic-run -optimize -adapt` uses, with a fixed charge per
// re-optimization so that simulated times do not depend on wall time.
const (
	gridClasses = 20
	gridCharge  = 0.1
)

func compileProblem(t testing.TB, p paperProblem) (*hdfs.FS, *hop.Compiler, *hop.Program) {
	t.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, p.scen)
	prog, err := dml.Parse(p.spec.Source)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	comp := hop.NewCompiler(fs, p.spec.Params)
	hp, err := comp.Compile(prog, p.spec.Source)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return fs, comp, hp
}

// optimized returns p's initial R* on the default cluster.
func optimized(t testing.TB, p paperProblem) conf.Resources {
	_, _, hp := compileProblem(t, p)
	return opt.New(conf.DefaultCluster()).Optimize(hp).Res
}

// runProblem simulates p from res with a new adapter, which tweak (if set)
// configures and wrap (if set) wraps, and records its consults.
func runProblem(t testing.TB, p paperProblem, res conf.Resources,
	tweak func(*Adapter, *rt.Interp), wrap func(*Adapter) rt.Adapter) (*rt.Interp, *recorder) {
	t.Helper()
	fs, comp, hp := compileProblem(t, p)
	cc := conf.DefaultCluster()
	ip := rt.New(rt.ModeSim, fs, cc, res.Clone())
	ip.Compiler = comp
	ip.SimTableCols = gridClasses
	ad := New(cc)
	ad.OptCharge = gridCharge
	rec := &recorder{ad: ad, inner: ad}
	if tweak != nil {
		tweak(ad, ip)
	}
	if wrap != nil {
		rec.inner = wrap(ad)
	}
	ip.Adapter = rec
	if err := ip.Run(lop.Select(hp, cc, res)); err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return ip, rec
}

// TestReoptReuseMatchesFresh runs every problem of the paper's grid twice,
// reusing the kept search and searching afresh on every consult, and
// requires the same run and the same consults bit for bit.
func TestReoptReuseMatchesFresh(t *testing.T) {
	consults, searches := 0, 0
	for _, p := range paperGrid() {
		rec := reuseMatchesFresh(t, p, optimized(t, p), nil)
		// MLogreg L dense100 searches at its first three consults (three
		// scopes) and once more when B's nnz becomes known after the
		// first outer iteration.
		if p.String() == "MLogreg L dense100" && (len(rec.consults) != 32 || rec.searches() != 4) {
			t.Errorf("%s: %d consults, %d fresh searches; want 32 and 4", p, len(rec.consults), rec.searches())
		}
		consults += len(rec.consults)
		searches += rec.searches()
	}
	if consults != 261 || searches != 37 {
		t.Errorf("grid: %d consults, %d fresh searches; want 261 and 37", consults, searches)
	}
}

// reuseMatchesFresh runs p from res with reuse and with a fresh search on
// every consult, requires both to run and decide identically, and returns
// the reuse run's consults.
func reuseMatchesFresh(t *testing.T, p paperProblem, res conf.Resources, tweak func(*Adapter, *rt.Interp)) *recorder {
	t.Helper()
	ip, rec := runProblem(t, p, res, tweak, nil)
	ref, refRec := runProblem(t, p, res, tweak, func(a *Adapter) rt.Adapter { return freshEveryConsult{a} })
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
	ad.Adapt(replay(ctx))
	ad.Adapt(replay(ctx))
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
// options.
func TestReoptReuseRefused(t *testing.T) {
	p := paperProblem{scripts.MLogreg(), datagen.New("L", 100, 1.0)}
	capt := &captureAdapter{}
	runProblem(t, p, optimized(t, p), nil, func(a *Adapter) rt.Adapter {
		capt.inner = a
		return capt
	})
	first := capt.ctx
	rows := []struct {
		name    string
		before  func(*Adapter)         // applied before the first consult
		change  func(*rt.AdaptContext) // applied to the second consult
		between func(*Adapter)         // applied between the two consults
		reused  bool
	}{
		{"unchanged", nil, nil, nil, true},
		{"node failure (container-loss trigger, shrunken cluster)", nil, func(c *rt.AdaptContext) {
			c.Trigger = rt.TriggerContainerLoss
			c.CC.Nodes--
		}, nil, false},
		{"cluster load changes between consults", nil, nil, func(a *Adapter) { a.Opt.ClusterLoad = 0.2 }, false},
		{"after a migration (current CP changed)", nil, func(c *rt.AdaptContext) {
			c.Res = c.Res.Clone()
			c.Res.CP *= 2
		}, nil, false},
		{"optimizer workers change (the result does not)", nil, nil, func(a *Adapter) { a.Opt.Workers = 4 }, true},
		{"grid points change", nil, nil, func(a *Adapter) { a.Opt.Points++ }, false},
		{"core candidates change in place", func(a *Adapter) { a.Opt.CPCoreCandidates = []int{1, 2} }, nil,
			func(a *Adapter) { a.Opt.CPCoreCandidates[1] = 4 }, false},
	}
	for _, row := range rows {
		ad := New(conf.DefaultCluster())
		ad.OptCharge = gridCharge
		if row.before != nil {
			row.before(ad)
		}
		second := replay(first)
		if row.change != nil {
			row.change(second)
		}
		if ad.Adapt(replay(first)) == nil {
			t.Fatalf("%s: no decision", row.name)
		}
		if row.between != nil {
			row.between(ad)
		}
		if ad.Adapt(second) == nil {
			t.Fatalf("%s: no decision", row.name)
		}
		if got := ad.Stats.ReoptReuses == 1; got != row.reused || ad.Stats.Reoptimizations != 2 {
			t.Errorf("%s: %d consults, %d reused; want the second reused: %v",
				row.name, ad.Stats.Reoptimizations, ad.Stats.ReoptReuses, row.reused)
		}
	}
}

// BenchmarkAdaptRepeat is one MLogreg L dense100 run with the adapter: 32
// consults, of which only the 4 whose scope program changed search.
func BenchmarkAdaptRepeat(b *testing.B) {
	p := paperProblem{scripts.MLogreg(), datagen.New("L", 100, 1.0)}
	res := optimized(b, p)
	consults, fresh := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rec := runProblem(b, p, res, nil, nil)
		consults += len(rec.consults)
		fresh += rec.searches()
	}
	b.StopTimer()
	perOp := func(n int) float64 { return float64(n) / float64(b.N) }
	if perOp(fresh) > 4 || perOp(consults) < 30 {
		b.Fatalf("%.1f consults/op and %.1f fresh/op; want ≥ 30 and ≤ 4", perOp(consults), perOp(fresh))
	}
	b.ReportMetric(perOp(consults), "consults/op")
	b.ReportMetric(perOp(fresh), "fresh/op")
}
