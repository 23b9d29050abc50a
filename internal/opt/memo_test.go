package opt

import (
	"sync"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

// compileTestProgram compiles a real script against synthetic metadata,
// mirroring what the workload service feeds the optimizer.
func compileTestProgram(t *testing.T, spec scripts.Spec) *hop.Program {
	t.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, datagen.New("XS", 1000, 1.0))
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	return hp
}

func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got %v, want %v)", name, got, want)
	}
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v != %v", name, got.Cost, want.Cost)
	}
	if got.Res.CP != want.Res.CP || got.Res.CPCores != want.Res.CPCores || len(got.Res.MR) != len(want.Res.MR) {
		t.Fatalf("%s: res %v != %v", name, got.Res, want.Res)
	}
	for i := range got.Res.MR {
		if got.Res.MR[i] != want.Res.MR[i] {
			t.Errorf("%s: MR[%d] %v != %v", name, i, got.Res.MR[i], want.Res.MR[i])
		}
	}
}

// TestOptimizeMemoMatchesOptimize: the memoized search returns exactly the
// plain search's result, both cold (empty memo, everything recorded) and
// warm (every CP point replayed without a single compilation).
func TestOptimizeMemoMatchesOptimize(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	o := New(conf.DefaultCluster())
	o.Opts.Points = 5

	fresh := o.Optimize(hp)
	m := NewMemo()
	cold := o.OptimizeMemo(hp, m)
	sameResult(t, "cold memo run", cold, fresh)
	if cold.Stats.ReplayedPoints != 0 {
		t.Errorf("cold run replayed %d points from an empty memo", cold.Stats.ReplayedPoints)
	}

	warm := o.OptimizeMemo(hp, m)
	sameResult(t, "warm memo run", warm, fresh)
	if warm.Stats.ReplayedPoints != warm.Stats.CPPoints {
		t.Errorf("warm run replayed %d of %d points", warm.Stats.ReplayedPoints, warm.Stats.CPPoints)
	}
	if warm.Stats.BlockCompilations != 0 {
		t.Errorf("warm run compiled %d blocks; want 0 (full replay)", warm.Stats.BlockCompilations)
	}
	if warm.Stats.BlockCompilations >= cold.Stats.BlockCompilations {
		t.Errorf("warm compilations %d not below cold %d",
			warm.Stats.BlockCompilations, cold.Stats.BlockCompilations)
	}
	if st := m.Stats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("memo unused: %+v", st)
	}
}

// TestOptimizeMemoAcrossClusterChanges: after warming the memo under the
// base cluster, a search under a *changed* cluster must still equal a fresh
// search under that cluster — the memo's validity rules may only skip work,
// never alter results. Covers every §5 transition the workload service
// performs: degraded-admission MaxAlloc clamps, node departure/failure,
// memory and budget-ratio changes, and core-count changes.
func TestOptimizeMemoAcrossClusterChanges(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	base := conf.DefaultCluster()

	mutations := []struct {
		name string
		mut  func(cc conf.Cluster) conf.Cluster
	}{
		{"maxalloc clamp (degraded admission)", func(cc conf.Cluster) conf.Cluster {
			cc.MaxAlloc /= 4
			return cc
		}},
		{"node departure", func(cc conf.Cluster) conf.Cluster {
			cc.Nodes--
			return cc
		}},
		{"mem per node shrunk", func(cc conf.Cluster) conf.Cluster {
			cc.MemPerNode -= 8 * conf.GB
			return cc
		}},
		{"cp budget ratio", func(cc conf.Cluster) conf.Cluster {
			cc.CPBudgetRatio = 0.5
			return cc
		}},
		{"cores per node", func(cc conf.Cluster) conf.Cluster {
			cc.CoresPerNode /= 2
			return cc
		}},
		{"reducers", func(cc conf.Cluster) conf.Cluster {
			cc.Reducers /= 2
			return cc
		}},
	}
	for _, mc := range mutations {
		t.Run(mc.name, func(t *testing.T) {
			m := NewMemo()
			warm := New(base)
			warm.Opts.Points = 5
			warm.OptimizeMemo(hp, m) // warm under the base cluster

			cc := mc.mut(base)
			oFresh := New(cc)
			oFresh.Opts.Points = 5
			fresh := oFresh.Optimize(hp)

			oMemo := New(cc)
			oMemo.Opts.Points = 5
			got := oMemo.OptimizeMemo(hp, m)
			sameResult(t, mc.name, got, fresh)
		})
	}
}

// TestOptimizeMemoReusesAcrossClamp: the headline §5 scenario — a MaxAlloc
// clamp from degraded admission — must actually *reuse* recorded work, not
// just stay correct. The grid under the clamped cluster differs, so full
// point replays are not guaranteed, but per-evaluation hits must land.
func TestOptimizeMemoReusesAcrossClamp(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	base := conf.DefaultCluster()
	m := NewMemo()
	warm := New(base)
	warm.Opts.Points = 5
	warm.OptimizeMemo(hp, m)
	before := m.Stats()

	cc := base
	cc.MaxAlloc /= 4
	o := New(cc)
	o.Opts.Points = 5
	r := o.OptimizeMemo(hp, m)
	after := m.Stats()
	if after.Hits <= before.Hits {
		t.Errorf("no memo reuse across MaxAlloc clamp: hits %d -> %d", before.Hits, after.Hits)
	}
	if r.Stats.ReuseHits == 0 && r.Stats.ReplayedPoints == 0 {
		t.Errorf("search neither replayed points nor reused evaluations: %+v", r.Stats)
	}
}

// TestOptimizeMemoIgnoresWorkers: the memo path is sequential by design;
// a Workers setting must neither break it nor change the result.
func TestOptimizeMemoIgnoresWorkers(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	o := New(conf.DefaultCluster())
	o.Opts.Points = 5
	fresh := o.Optimize(hp)

	o.Opts.Workers = 4
	got := o.OptimizeMemo(hp, NewMemo())
	sameResult(t, "workers=4 with memo", got, fresh)
}

// TestOptimizeMemoConcurrent: concurrent searches sharing one memo must be
// race-free and each return the sequential result (run under -race).
func TestOptimizeMemoConcurrent(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	cc := conf.DefaultCluster()
	o := New(cc)
	o.Opts.Points = 5
	fresh := o.Optimize(hp)

	clamped := cc
	clamped.MaxAlloc /= 2

	m := NewMemo()
	const workers = 6
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the goroutines search under a clamped cluster to force
			// concurrent mixed-validity traffic on the shared tables.
			ccw := cc
			if w%2 == 1 {
				ccw = clamped
			}
			ow := New(ccw)
			ow.Opts.Points = 5
			results[w] = ow.OptimizeMemo(hp, m)
		}(w)
	}
	wg.Wait()

	oc := New(clamped)
	oc.Opts.Points = 5
	freshClamped := oc.Optimize(hp)
	for w := 0; w < workers; w++ {
		want := fresh
		if w%2 == 1 {
			want = freshClamped
		}
		sameResult(t, "concurrent memo search", results[w], want)
	}
}

// TestMemoStoreLRU: the per-program memo store is a bounded LRU keyed by
// MemoKey; eviction forgets a program's tables (a later Get recreates them).
func TestMemoStoreLRU(t *testing.T) {
	s := NewMemoStore(2)
	a := s.Get("a")
	b := s.Get("b")
	if a == nil || b == nil || a == b {
		t.Fatal("store returned bad memos")
	}
	if s.Get("a") != a {
		t.Error("second Get(a) returned a different memo")
	}
	_ = s.Get("c") // evicts b (LRU after a was refreshed)
	if s.Len() != 2 {
		t.Errorf("len %d, want 2", s.Len())
	}
	if s.Get("a") != a {
		t.Error("a evicted despite being most recently used")
	}
	if s.Get("b") == b {
		t.Error("b not evicted")
	}

	var nilStore *MemoStore
	if nilStore.Get("x") != nil || nilStore.Len() != 0 {
		t.Error("nil store must disable memoization")
	}
	if NewMemoStore(0).capacity != DefaultMemoPrograms {
		t.Error("default capacity not applied")
	}
}

// TestMemoFlushOnClusterOverflow: interning more cluster states than the cap
// flushes rather than growing without bound, and stays correct afterwards.
func TestMemoFlushOnClusterOverflow(t *testing.T) {
	m := NewMemo()
	cc := conf.DefaultCluster()
	for i := 0; i < maxMemoCCs+4; i++ {
		c := cc
		c.Nodes = 2 + i
		v := newMemoView(m, c)
		v.recordBlock(memoBlockKey{cores: 1, rc: conf.GB, ri: conf.GB}, memoBlockVal{cost: float64(i), mr: true})
	}
	m.mu.Lock()
	nccs := len(m.ccs)
	m.mu.Unlock()
	if nccs > maxMemoCCs {
		t.Errorf("cluster table grew past cap: %d", nccs)
	}
	// Entries recorded after the flush must still be retrievable.
	c := cc
	c.Nodes = 2 + maxMemoCCs + 3
	v := newMemoView(m, c)
	if e, ok := v.block(memoBlockKey{cores: 1, rc: conf.GB, ri: conf.GB}); !ok || e.cost != float64(maxMemoCCs+3) {
		t.Errorf("post-flush lookup: ok=%v cost=%v", ok, e.cost)
	}
}
