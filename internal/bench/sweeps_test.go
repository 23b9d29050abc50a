package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestSweepsGolden pins everything `elastic-bench -exp all` prints from
// "Failure sweep:" on — simulated time only, so it repeats byte for byte —
// and the four BENCH_*.json artifacts, all in full mode. A change to
// costing, scheduling or recovery that moves a row shows up as a diff of
// testdata/; refresh intentionally with
//
//	go test ./internal/bench -run TestSweepsGolden -update
func TestSweepsGolden(t *testing.T) {
	f := fullRun(t)
	files := map[string][]byte{"sweeps.golden": []byte(f.full)}
	for name, data := range f.artifacts {
		files[name] = data
	}
	for name, got := range files {
		checkGolden(t, name, got)
	}

	// The artifacts decode to exactly the rows the tests below assert on.
	decodesTo(t, f.artifacts["BENCH_workload.json"], f.workload)
	decodesTo(t, f.artifacts["BENCH_chaos.json"], f.chaos)
	decodesTo(t, f.artifacts["BENCH_elastic.json"], f.elastic)
	decodesTo(t, f.artifacts["BENCH_minibatch.json"], f.minibatch)

	// -quick runs a subset of the full mode's cells, so every row of the
	// quick tail is a second computation of a pinned row.
	if f.quickAllErr != nil {
		t.Fatal(f.quickAllErr)
	}
	_, tail, ok := strings.Cut(f.quickAll, workloadSweep.title)
	if !ok {
		t.Fatalf("no service sweeps in the -quick -exp all output:\n%s", f.quickAll)
	}
	for _, line := range strings.Split(tail, "\n") {
		if !strings.HasPrefix(line, "wrote ") && !strings.Contains(f.full, line+"\n") {
			t.Errorf("-quick line is not a line of the full sweeps: %q", line)
		}
	}
}

func decodesTo[R any](t *testing.T, artifact []byte, rows []R) {
	t.Helper()
	var doc struct {
		Rows []R `json:"rows"`
	}
	if err := json.Unmarshal(artifact, &doc); err != nil {
		t.Fatalf("bad artifact JSON: %v", err)
	}
	if !reflect.DeepEqual(doc.Rows, rows) {
		t.Errorf("artifact rows differ from the sweep's:\n%+v\nvs\n%+v", doc.Rows, rows)
	}
}

// checkGolden compares got with testdata/name, or rewrites that file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs (re-run with -update if intended):\n%s", path, diffLines(string(want), string(got)))
	}
}

// diffLines renders the differing lines of a golden mismatch.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("  want: " + wl + "\n  got:  " + gl + "\n")
		}
	}
	return sb.String()
}

// TestWorkloadSweep checks the multi-tenant sweep's rows: 3 tenant counts x
// 2 cache settings x {no failure, failure}.
func TestWorkloadSweep(t *testing.T) {
	rows := fullRun(t).workload
	if len(rows) != 12 {
		t.Fatalf("want 12 sweep rows, got %d", len(rows))
	}
	sawSharedHit, sawDisabled := false, false
	for _, row := range rows {
		if row.P50Latency > row.P95Latency {
			t.Errorf("row %+v: p50 > p95", row)
		}
		if row.Utilization < 0 || row.Utilization > 1 {
			t.Errorf("row %+v: utilization out of range", row)
		}
		if row.CacheEntries >= 0 && row.HitRate > 0 {
			sawSharedHit = true
		}
		if row.CacheEntries < 0 {
			sawDisabled = true
			if row.HitRate != 0 {
				t.Errorf("disabled cache reported hit rate %v", row.HitRate)
			}
		}
		if row.NodeFailure && row.Requeues == 0 && row.Tenants >= 16 {
			t.Errorf("row %+v: node failure produced no requeues", row)
		}
	}
	if !sawSharedHit {
		t.Error("no sweep row with a shared-cache hit")
	}
	if !sawDisabled {
		t.Error("no cache-disabled rows in the sweep")
	}
}

// TestChaosSweepTrajectory pins the acceptance comparison at both tenant
// counts: under the identical correlated-failure schedule, checkpoint/
// restart completes strictly more jobs with strictly less wasted simulated
// work than naive requeue, and the breaker policies bound p95 admission
// latency while actually tripping.
func TestChaosSweepTrajectory(t *testing.T) {
	rows := fullRun(t).chaos
	if len(rows) != 8 {
		t.Fatalf("want 8 sweep rows, got %d", len(rows))
	}
	for _, n := range chaosSweep.full {
		byPolicy := map[string]ChaosRow{}
		for _, row := range rows {
			if row.Tenants != n {
				continue
			}
			byPolicy[row.Policy] = row
			if row.NodeFailures < 3 || row.NodeRestores < 3 {
				t.Errorf("%d/%s: chaos too quiet: %d failures, %d restores", n, row.Policy, row.NodeFailures, row.NodeRestores)
			}
			if row.Requeues < 1 {
				t.Errorf("%d/%s: no requeues under the storm", n, row.Policy)
			}
			if row.Utilization <= 0 || row.Utilization > 1 {
				t.Errorf("%d/%s: utilization %v out of range", n, row.Policy, row.Utilization)
			}
		}
		nv, ck := byPolicy["naive"], byPolicy["checkpoint"]
		if ck.Served <= nv.Served {
			t.Errorf("%d: checkpoint served %d, naive %d — want strictly more", n, ck.Served, nv.Served)
		}
		if ck.WastedWork >= nv.WastedWork {
			t.Errorf("%d: checkpoint wasted %.1fs, naive %.1fs — want strictly less", n, ck.WastedWork, nv.WastedWork)
		}
		if ck.FailedPermanently > nv.FailedPermanently {
			t.Errorf("%d: checkpoint terminal failures %d exceed naive's %d", n, ck.FailedPermanently, nv.FailedPermanently)
		}
		for _, name := range []string{"breaker-degrade", "breaker-shed"} {
			br := byPolicy[name]
			if br.BreakerTrips < 1 {
				t.Errorf("%d/%s: breaker never tripped under the storm", n, name)
			}
			if br.P95QueueDelay > ck.P95QueueDelay {
				t.Errorf("%d/%s: p95 admission %.1fs exceeds breaker-off %.1fs — breaker must bound admission latency",
					n, name, br.P95QueueDelay, ck.P95QueueDelay)
			}
		}
		if byPolicy["breaker-shed"].Shed < 1 {
			t.Errorf("%d: shed-mode breaker shed nothing during the outage", n)
		}
	}
}

// policyDominance is the claim both scheduling-policy sweeps make, checked
// per trace and tenant count: the width-flexible policies strictly improve
// tail queueing delay over rigid FIFO admission — they admit bursts narrow
// instead of head-blocking at full desired width — without costing
// completions, and FIFO stays rigid. mayNotGrow names the trace/tenants/
// policy rows where the claim's last part, that the policy grew a job at
// all, does not hold.
func policyDominance(t *testing.T, sw sweep[ElasticRow], rows []ElasticRow, mayNotGrow map[string]bool) {
	t.Helper()
	for _, tr := range sw.traces {
		for _, n := range sw.full {
			byPolicy := map[string]ElasticRow{}
			for _, r := range rows {
				if r.Trace == tr.name && r.Tenants == n {
					byPolicy[r.Policy] = r
				}
			}
			if len(byPolicy) != len(sw.cells) {
				t.Fatalf("%s/%d: %d rows, want one per policy", tr.name, n, len(byPolicy))
			}
			fifo := byPolicy["fifo"]
			if fifo.Served == 0 {
				t.Errorf("%s/%d: fifo served nobody", tr.name, n)
			}
			if fifo.Grows != 0 || fifo.Shrinks != 0 {
				t.Errorf("%s/%d: fifo must stay rigid, got %d grows %d shrinks", tr.name, n, fifo.Grows, fifo.Shrinks)
			}
			for _, pol := range []string{"fair", "regret"} {
				r := byPolicy[pol]
				if r.P95Queue >= fifo.P95Queue {
					t.Errorf("%s/%d: %s p95 queue delay %.2f not strictly below fifo %.2f",
						tr.name, n, pol, r.P95Queue, fifo.P95Queue)
				}
				if r.Served < fifo.Served {
					t.Errorf("%s/%d: %s served %d < fifo %d: faster queues must not cost completions",
						tr.name, n, pol, r.Served, fifo.Served)
				}
				if r.Grows == 0 && !mayNotGrow[fmt.Sprintf("%s/%d/%s", tr.name, n, pol)] {
					t.Errorf("%s/%d: %s recorded no grows; the sweep is not exercising malleability", tr.name, n, pol)
				}
			}
		}
	}
}

// TestElasticPolicyDominance pins the headline claim of the elastic sweep
// on the skewed-burst trace, at 12 and at 24 tenants.
func TestElasticPolicyDominance(t *testing.T) {
	policyDominance(t, elasticSweep, fullRun(t).elastic, nil)
}

// TestMinibatchPolicyDominance pins the mini-batch sweep's claim on the
// straggler and the correlated-failure trace, at 12 and at 24 tenants:
// growing between epochs and shrinking mid-epoch lets the flexible policies
// ride out slow nodes instead of head-blocking each burst. Every flexible
// policy grows a job in every cell.
func TestMinibatchPolicyDominance(t *testing.T) {
	policyDominance(t, minibatchSweep, fullRun(t).minibatch, nil)
}
