package yarn

import (
	"errors"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/obs"
)

func chaosCluster(nodes int) conf.Cluster {
	cc := conf.DefaultCluster()
	cc.Nodes = nodes
	cc.MemPerNode = 4 * conf.GB
	cc.MaxAlloc = 4 * conf.GB
	return cc
}

// TestFailNodesGroup: a correlated group loss removes every member's
// capacity atomically, kills resident containers, and counts one
// yarn.node_failures per lost node.
func TestFailNodesGroup(t *testing.T) {
	rm := NewResourceManager(chaosCluster(4))
	var conts []Container
	for i := 0; i < 4; i++ {
		c, err := rm.Allocate(3 * conf.GB) // worst-fit spreads one per node
		if err != nil {
			t.Fatal(err)
		}
		conts = append(conts, c)
	}
	tr := obs.New(false)
	rm.SetTracer(tr)

	lost, err := rm.FailNodes([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 2 {
		t.Fatalf("want 2 lost containers, got %d", len(lost))
	}
	if rm.LiveNodes() != 2 {
		t.Errorf("want 2 live nodes, got %d", rm.LiveNodes())
	}
	if got := tr.Metrics().Counter("yarn.node_failures"); got != 2 {
		t.Fatalf("yarn.node_failures = %d, want 2", got)
	}
	for _, c := range lost {
		if err := rm.Release(c.ID); !errors.Is(err, ErrUnknownContainer) {
			t.Errorf("release of group-lost container: got %v, want ErrUnknownContainer", err)
		}
	}
	// Survivors are untouched.
	for _, c := range conts {
		if c.Node == 1 || c.Node == 2 {
			continue
		}
		if err := rm.Release(c.ID); err != nil {
			t.Errorf("survivor release: %v", err)
		}
	}
}

// TestFailNodesSkipsDownAndRejectsUnknown: already-failed members are
// skipped without error; out-of-range indices fail the whole call before
// any node is touched.
func TestFailNodesSkipsDownAndRejectsUnknown(t *testing.T) {
	rm := NewResourceManager(chaosCluster(3))
	if _, err := rm.FailNodes([]int{0}); err != nil {
		t.Fatal(err)
	}
	lost, err := rm.FailNodes([]int{0, 1})
	if err != nil {
		t.Fatalf("group with down member: %v", err)
	}
	if len(lost) != 0 {
		t.Errorf("no containers allocated, got %d lost", len(lost))
	}
	if rm.LiveNodes() != 1 {
		t.Errorf("want 1 live node, got %d", rm.LiveNodes())
	}
	if _, err := rm.FailNodes([]int{2, 9}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("out-of-range group: got %v, want ErrUnknownNode", err)
	}
	if rm.LiveNodes() != 1 {
		t.Errorf("rejected group still failed a node: %d live", rm.LiveNodes())
	}
}

// TestNodeSpeed: slow-node episodes are bookkept per node, and each change
// of a node's factor counts one yarn.node_slow_events.
func TestNodeSpeed(t *testing.T) {
	rm := NewResourceManager(chaosCluster(2))
	tr := obs.New(false)
	rm.SetTracer(tr)
	slowEvents := func() int64 { return tr.Metrics().Counter("yarn.node_slow_events") }

	if err := rm.SetNodeSpeed(1, 3.5); err != nil {
		t.Fatal(err)
	}
	if got := rm.NodeSpeed(1); got != 3.5 {
		t.Errorf("node speed %g, want 3.5", got)
	}
	if got := rm.NodeSpeed(0); got != 1 {
		t.Errorf("untouched node speed %g, want 1", got)
	}
	if got := slowEvents(); got != 1 {
		t.Fatalf("yarn.node_slow_events = %d, want 1", got)
	}

	// A repeated set counts nothing.
	if err := rm.SetNodeSpeed(1, 3.5); err != nil {
		t.Fatal(err)
	}
	if got := slowEvents(); got != 1 {
		t.Fatalf("yarn.node_slow_events = %d after a repeated set, want 1", got)
	}

	if err := rm.SetNodeSpeed(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := rm.NodeSpeed(1); got != 1 {
		t.Errorf("recovered node speed %g, want 1", got)
	}
	if got := slowEvents(); got != 2 {
		t.Fatalf("yarn.node_slow_events = %d after recovery, want 2", got)
	}

	if err := rm.SetNodeSpeed(0, 0.5); err == nil {
		t.Error("factor < 1 accepted")
	}
	if err := rm.SetNodeSpeed(9, 2); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: got %v, want ErrUnknownNode", err)
	}
}

// TestRestoreResetsSpeed: a failed-and-restored NM re-registers at full
// speed — the slow episode died with the old process.
func TestRestoreResetsSpeed(t *testing.T) {
	rm := NewResourceManager(chaosCluster(2))
	if err := rm.SetNodeSpeed(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.FailNodes([]int{0}); err != nil {
		t.Fatal(err)
	}
	if err := rm.RestoreNode(0); err != nil {
		t.Fatal(err)
	}
	if got := rm.NodeSpeed(0); got != 1 {
		t.Errorf("restored node speed %g, want 1", got)
	}
}
