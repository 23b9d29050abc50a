package workload

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// Prepare runs identify, the cache key, and on a miss compile, a cold
// search and a simulate of its answer off the sequencer; the sequencer
// commits the answer only when its own miss is under the same key, and the
// run only when it admits the job under the same view and configuration. These tests pin that the answer is the
// one the sequencer's search would have found, that a spec's prepared
// state never outlives its use, and that a prepared run reports exactly
// what an unprepared one does.

// coldMix is the daemon's cold benchmark deck: the five paper scripts at
// XS/S/M, each over three column counts.
func coldMix() []JobSpec {
	var specs []JobSpec
	for _, sc := range scripts.All() {
		for _, size := range []string{"XS", "S", "M"} {
			for _, cols := range []int64{200, 1000, 8391} {
				specs = append(specs, JobSpec{
					Tenant: fmt.Sprintf("%s-%s-%d", sc.Name, size, cols), Script: sc,
					Scenario: datagen.New(size, cols, 1.0),
				})
			}
		}
	}
	return specs
}

func sameAnswer(res conf.Resources, cost float64, out *opt.Result) bool {
	return resEqual(res, out.Res) && math.Float64bits(cost) == math.Float64bits(out.Cost)
}

// TestPrepareMatchesSequencerSearch: over the cold mix, Prepare's cold
// search returns bit for bit what the sequencer's search returns for the
// same key.
func TestPrepareMatchesSequencerSearch(t *testing.T) {
	s, err := New(conf.DefaultCluster(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := s.optOpts()
	for _, spec := range coldMix() {
		id := s.Prepare(spec).prep
		if id == nil || id.prep == nil || id.prog == nil || id.view != s.live() || id.prep.key != id.key {
			t.Fatalf("%s: prepared nothing to commit: %+v", spec.Tenant, id)
		}
		fresh, err := identify(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.prog, err = s.compile(fresh); err != nil {
			t.Fatal(err)
		}
		if key := fresh.cacheKey(s.live(), opts); key != id.prep.key {
			t.Fatalf("%s: prepared key %s, sequencer key %s", spec.Tenant, id.prep.key, key)
		}
		out := (&opt.Optimizer{CC: s.live(), Opts: opts}).Optimize(fresh.prog.hp)
		if !sameAnswer(id.prep.res, id.prep.cost, out) {
			t.Errorf("%s: prepared %s at %v, sequencer search %s at %v",
				spec.Tenant, id.prep.res, id.prep.cost, out.Res, out.Cost)
		}
	}
}

// TestPreparedRunMatchesUnprepared: the cold mix, with every third job a
// repeat of an earlier key, is prepared up front (so every spec misses and
// carries an answer) and then submitted one at a time at the frontier, with
// the event loop run dry in between. The report equals the one of the same
// submissions unprepared; each distinct key's first job commits its
// prepared answer and run, and a repeat, which hits, commits nothing of its
// own. The search and the simulate moved off the sequencer, so every
// cache miss takes a prepared answer and the sequencer simulates nothing.
func TestPreparedRunMatchesUnprepared(t *testing.T) {
	var specs []JobSpec
	for i, spec := range coldMix() {
		specs = append(specs, spec)
		if i%3 == 2 {
			specs = append(specs, specs[i/2])
		}
	}
	run := func(prepare bool) ([]byte, *Service, *obs.Metrics) {
		o := DefaultOptions()
		o.Trace = obs.New(false)
		s, err := New(conf.DefaultCluster(), o)
		if err != nil {
			t.Fatal(err)
		}
		s.ScheduleChaos()
		prepared := make([]JobSpec, len(specs))
		for i, spec := range specs {
			prepared[i] = spec
			if prepare {
				prepared[i] = s.Prepare(spec)
			}
		}
		for _, spec := range prepared {
			spec.Arrival = s.Frontier()
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
			for s.Step() {
			}
		}
		var buf bytes.Buffer
		if err := s.Finalize().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), s, o.Trace.Metrics()
	}
	want, _, _ := run(false)
	got, s, m := run(true)
	if !bytes.Equal(got, want) {
		t.Fatalf("prepared run reports differently:\n%s", diffLine(got, want))
	}
	distinct := len(coldMix())
	if used, stale := m.Counter("workload.prep_used"), m.Counter("workload.prep_stale"); used != int64(distinct) || stale != 0 {
		t.Errorf("prep_used %d, prep_stale %d; want %d and 0", used, stale, distinct)
	}
	if runs, reuses := m.Counter("workload.sim_runs"), m.Counter("workload.sim_reuses"); runs != 0 || reuses != int64(len(specs)) {
		t.Errorf("sim_runs %d, sim_reuses %d; want 0 and %d: a prepared run was simulated again", runs, reuses, len(specs))
	}
	if n := m.Counter("workload.compiles"); n != int64(len(specs)) {
		t.Errorf("%d compiles, want one per prepared miss (%d)", n, len(specs))
	}
	if misses := s.cache.Stats().Misses; misses != m.Counter("workload.prep_used") {
		t.Errorf("%d cache misses, %d prepared answers used: the sequencer searched", misses, m.Counter("workload.prep_used"))
	}
	for _, j := range s.jobs {
		if j != nil {
			t.Fatalf("%s: the service keeps a finished job and its prepared state", j.result.Tenant)
		}
	}
}

// TestStaleAnswerIsNotCommitted: a job is prepared on six nodes, then five
// of them fail before it is admitted. Its prepared answer keeps the same
// resources but costs the program on six nodes' MR parallelism, so a
// commit that took it would carry the wrong cost into every later
// re-optimization. The job must be admitted with the search of the view it
// is admitted under, and on the program Prepare compiled, which the
// sequencer simulates again: Prepare's run was under six nodes too.
func TestStaleAnswerIsNotCommitted(t *testing.T) {
	o := DefaultOptions()
	o.Trace = obs.New(false)
	o.Chaos.Groups = []fault.GroupFailure{{Nodes: []int{1, 2, 3, 4, 5}, At: 1}}
	s, err := New(conf.DefaultCluster(), o)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleChaos()
	spec := s.Prepare(JobSpec{Tenant: "t", Script: scripts.LinregDS(), Scenario: datagen.New("M", 300, 1.0)})
	stale := spec.prep.prep
	for s.live().Nodes != 1 {
		stepChecked(t, s)
	}
	spec.Arrival = s.Frontier()
	j := s.jobs[s.submit(spec)]
	for j.state != jsRunning {
		stepChecked(t, s)
	}
	out := (&opt.Optimizer{CC: s.live(), Opts: s.optOpts()}).Optimize(j.id.prog.hp)
	if !sameAnswer(j.res, j.cost, out) {
		t.Errorf("admitted %s at %v, the live view's search gives %s at %v", j.res, j.cost, out.Res, out.Cost)
	}
	if math.Float64bits(stale.cost) == math.Float64bits(out.Cost) {
		t.Fatalf("the prepared answer (%v) is not stale: the test shows nothing", stale.cost)
	}
	m := o.Trace.Metrics()
	if m.Counter("workload.prep_used") != 0 || m.Counter("workload.prep_stale") != 1 || m.Counter("workload.compiles") != 1 ||
		m.Counter("workload.sim_runs") != 1 {
		t.Errorf("prep_used %d, prep_stale %d, compiles %d, sim_runs %d; want 0, 1, 1, 1", m.Counter("workload.prep_used"),
			m.Counter("workload.prep_stale"), m.Counter("workload.compiles"), m.Counter("workload.sim_runs"))
	}
}

// TestPreparedStateIsDropped: the prepared identity leaves the spec when the
// job's first placement takes it over, its answer leaves the identity at
// the job's first plan, and a job canceled before it was ever placed is
// folded, so the service drops both with the job.
func TestPreparedStateIsDropped(t *testing.T) {
	s, err := New(conf.DefaultCluster(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleChaos()
	mix := coldMix()
	placed := s.jobs[s.submit(s.Prepare(mix[0]))]
	canceled := s.jobs[s.submit(s.Prepare(mix[1]))]
	if placed.spec.prep == nil || canceled.spec.prep == nil {
		t.Fatal("Prepare attached nothing")
	}
	s.Cancel(canceled.idx)
	if s.jobs[canceled.idx] != nil {
		t.Error("the service keeps a canceled job and its prepared identity")
	}
	for placed.state != jsRunning {
		stepChecked(t, s)
	}
	if placed.spec.prep != nil || placed.id == nil || placed.id.prep != nil {
		t.Errorf("a placed job keeps its prepared state: spec %v, answer %v", placed.spec.prep != nil, placed.id.prep != nil)
	}
}

// FuzzPrepare: Prepare runs parse → HOP → Optimize on tenant goroutines, so
// no source may panic there. The body runs it as a scenario job of one of
// the paper scripts (its parameters and described inputs, so a source that
// compiles reaches the optimizer) and, like the sequencer would, as a
// value-mode job over no inputs. A panic that escapes fails the target; so
// does one Prepare recovered, since the sequencer would hit the same panic.
// A prepared answer must be a configuration the cluster can grant, and a
// value-mode job is never run off the sequencer.
func FuzzPrepare(f *testing.F) {
	for i, sc := range scripts.All() {
		f.Add(sc.Source, uint8(i))
	}
	for i, sc := range scripts.Minibatch() {
		f.Add(sc.Source, uint8(i))
	}
	cc := conf.DefaultCluster()
	s, err := New(cc, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	all := scripts.All()
	f.Fuzz(func(t *testing.T, src string, which uint8) {
		if src == "" {
			return // neither a script nor a source: Submit refuses the spec
		}
		sc := all[int(which)%len(all)]
		sc.Source = src
		for _, spec := range []JobSpec{
			{Script: sc, Scenario: datagen.New("XS", 100, 1.0)},
			{Source: src, Params: sc.Params},
		} {
			id, err := s.prepare(spec)
			if errors.Is(err, errPanic) {
				t.Fatalf("prepare panicked: %v", err)
			}
			if p := s.Prepare(spec).prep; (p == nil) != (err != nil) {
				t.Fatalf("Prepare handed over %v after %v", p != nil, err)
			}
			if err == nil && id.prep != nil && cc.ContainerSize(id.prep.res.CP) > cc.MaxAlloc {
				t.Fatalf("prepared CP %v exceeds the largest container", id.prep.res.CP)
			}
			if err == nil && id.mode == rt.ModeValue && id.run.outcome != nil {
				t.Fatal("Prepare ran a value-mode job's program")
			}
		}
	})
}
