package workload

import (
	"math"
	"reflect"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
)

// checkInvariants asserts the service's structural invariants; the chaos,
// elasticity, and fuzz tests call it after every Step. It reads service
// state only (the shadow compiles below are discounted from the
// workload.compiles counter again, and the shadow simulations bypass run, so
// workload.sim_runs never sees them).
func checkInvariants(t *testing.T, s *Service) {
	t.Helper()

	// Container conservation: per node, what the jobs hold plus what the RM
	// has free is the node's memory (a failed node reports 0 free and must
	// host nothing), and the RM knows exactly the containers jobs hold.
	held := make([]conf.Bytes, s.cc.Nodes)
	containers, running := 0, 0
	inQueue := map[int]int{}
	for _, q := range s.queue {
		inQueue[q]++
	}
	var wasted float64
	if len(s.rows) != len(s.jobs) {
		t.Errorf("t=%.3f: %d rows for %d submissions", s.now, len(s.rows), len(s.jobs))
	}
	for i, j := range s.jobs {
		// A terminal job is folded: the service keeps its row and no job.
		if j == nil {
			r := &s.rows[i]
			if r.state < jsDone || inQueue[i] != 0 {
				t.Errorf("t=%.3f %s: folded in state %v with %d queue entries", s.now, r.result.Tenant, r.state, inQueue[i])
			}
			wasted += r.result.WastedWork
			continue
		}
		name := j.result.Tenant
		for _, c := range j.conts {
			held[c.Node] += c.Mem
		}
		containers += len(j.conts)

		// Each job is in exactly one place: the queue, the cluster, a
		// backoff wait, a terminal state, or not yet arrived.
		if n := inQueue[j.idx]; (j.state == jsQueued) != (n == 1) || n > 1 {
			t.Errorf("t=%.3f %s: state %v but %d queue entries", s.now, name, j.state, n)
		}
		if j.state != jsRunning {
			if len(j.conts) != 0 || j.pendingW != 0 {
				t.Errorf("t=%.3f %s: state %v holds %d containers, pending width %d",
					s.now, name, j.state, len(j.conts), j.pendingW)
			}
		} else {
			running++
			e := j.spec.Elastic
			if w := len(j.conts); w < e.MinContainers || w > e.MaxContainers {
				t.Errorf("t=%.3f %s: width %d outside [%d, %d]", s.now, name, w, e.MinContainers, e.MaxContainers)
			}
			if p := j.pendingW; p != 0 && (p < e.MinContainers || p > e.MaxContainers) {
				t.Errorf("t=%.3f %s: pending width %d outside [%d, %d]", s.now, name, p, e.MinContainers, e.MaxContainers)
			}
			if j.finish < s.now {
				t.Errorf("t=%.3f %s: running past its finish %.3f", s.now, name, j.finish)
			}
		}

		// Shadow check: a retained identity — what plan keys a cache lookup
		// on — is what the job's spec yields right now, and its memoized key
		// is the key of the view it was derived under.
		switch {
		case j.state >= jsDone:
			t.Errorf("t=%.3f %s: state %v but the service still holds the job", s.now, name, j.state)
		case j.id != nil:
			fresh, err := identify(j.spec)
			if err != nil {
				t.Errorf("t=%.3f %s: shadow identify: %v", s.now, name, err)
				break
			}
			id := j.id
			if id.mode != fresh.mode || id.source != fresh.source ||
				!reflect.DeepEqual(id.params, fresh.params) || !reflect.DeepEqual(id.inputs, fresh.inputs) {
				t.Errorf("t=%.3f %s: retained identity differs from a fresh one", s.now, name)
			}
			if want := opt.CacheKey(fresh.source, fresh.params, fresh.inputs, id.view, s.optOpts()); id.key != "" && id.key != want {
				t.Errorf("t=%.3f %s: memoized key %s, want %s under %+v", s.now, name, id.key, want, id.view)
			}
			// A plan started from a kept outcome — a plan-cache entry's or
			// the job's own last run — runs exactly what compiling and
			// simulating it now, under the live view and configuration it
			// was started with, yields.
			if k := id.run; k.reused && j.state == jsRunning {
				if id.mode != rt.ModeSim {
					t.Errorf("t=%.3f %s: a value-mode job did not run", s.now, name)
				}
				c, err := s.compile(fresh)
				s.tr.Metrics().Add("workload.compiles", -1)
				if err != nil {
					t.Errorf("t=%.3f %s: shadow compile: %v", s.now, name, err)
					break
				}
				fresh.prog = c
				sr := simulate(fresh, k.live, k.res)
				if sr.err != nil {
					t.Errorf("t=%.3f %s: shadow simulate: %v", s.now, name, sr.err)
				} else if *sr.outcome != *k.outcome || len(sr.outputs) != 0 {
					t.Errorf("t=%.3f %s: started from the kept outcome %+v, a fresh run under %d nodes and %s yields %+v",
						s.now, name, *k.outcome, k.live.Nodes, k.res.String(), *sr.outcome)
				}
			}
		case j.state == jsRunning:
			t.Errorf("t=%.3f %s: running without an identity", s.now, name)
		}

		if !(j.result.WastedWork >= 0) {
			t.Errorf("t=%.3f %s: wasted work %g", s.now, name, j.result.WastedWork)
		}
		wasted += j.result.WastedWork
	}
	if live := s.rm.LiveNodes(); s.live().Nodes != live {
		t.Errorf("t=%.3f: cluster view has %d live nodes, RM has %d", s.now, s.live().Nodes, live)
	}
	if running != s.running {
		t.Errorf("t=%.3f: %d jobs running, counter says %d", s.now, running, s.running)
	}
	if got := s.rm.AllocatedCount(); got != containers {
		t.Errorf("t=%.3f: RM has %d containers allocated, jobs hold %d", s.now, got, containers)
	}
	for node, h := range held {
		free, err := s.rm.FreeOnNode(node)
		if err != nil {
			t.Fatal(err)
		}
		if h+free != s.cc.MemPerNode && !(h == 0 && free == 0) {
			t.Errorf("t=%.3f node %d: jobs hold %v, RM has %v free of %v", s.now, node, h, free, s.cc.MemPerNode)
		}
	}
	if math.Abs(wasted-s.rep.WastedWork) > 1e-9*math.Max(1, s.rep.WastedWork) {
		t.Errorf("t=%.3f: tenants wasted %.9f in total, report says %.9f", s.now, wasted, s.rep.WastedWork)
	}

	// Time is monotone: nothing is scheduled in the past, and the event
	// heap is a heap.
	for i, ev := range s.evs {
		if ev.at < s.now {
			t.Errorf("t=%.3f: event %d (kind %d) scheduled in the past at %.6f", s.now, i, ev.kind, ev.at)
		}
		if parent := (i - 1) / 2; i > 0 && s.evs.Less(i, parent) {
			t.Errorf("t=%.3f: event heap order broken at %d", s.now, i)
		}
	}
}

// stepChecked is Step followed by checkInvariants.
func stepChecked(t *testing.T, s *Service) bool {
	t.Helper()
	more := s.Step()
	checkInvariants(t, s)
	return more
}

// runChecked is Run with checkInvariants after every Step and after
// Finalize.
func runChecked(t *testing.T, cc conf.Cluster, jobs []JobSpec, o Options, mutate ...func(*Service)) (*Report, error) {
	t.Helper()
	s, err := New(cc, o)
	if err != nil {
		return nil, err
	}
	for _, m := range mutate {
		if m != nil {
			m(s)
		}
	}
	if err := validate(jobs, cc.Nodes, s.opts.Chaos); err != nil {
		return nil, err
	}
	for _, spec := range jobs {
		s.submit(spec)
	}
	s.ScheduleChaos()
	for stepChecked(t, s) {
	}
	rep := s.Finalize()
	checkInvariants(t, s)
	for _, j := range s.jobs {
		if j != nil {
			t.Errorf("%s left in state %v after Finalize", j.result.Tenant, j.state)
		}
	}
	return rep, nil
}
