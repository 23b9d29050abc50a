package yarn

import (
	"errors"
	"sync"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/obs"
)

func TestFailNodeReleasesContainersAndNotifies(t *testing.T) {
	cc := conf.DefaultCluster()
	rm := NewResourceManager(cc)
	tr := obs.New(false)
	rm.SetTracer(tr)

	// Pin two containers per node by worst-fit spreading.
	var held []Container
	for i := 0; i < 2*cc.Nodes; i++ {
		c, err := rm.Allocate(10 * conf.GB)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		held = append(held, c)
	}
	total := rm.AvailableMem()

	node := held[0].Node
	lost, err := rm.FailNodes([]int{node})
	if err != nil {
		t.Fatalf("FailNodes: %v", err)
	}
	if len(lost) != 2 {
		t.Errorf("lost %d containers, want 2", len(lost))
	}
	if rm.LiveNodes() != cc.Nodes-1 {
		t.Errorf("live nodes = %d", rm.LiveNodes())
	}
	// Lost capacity: the node's full memory, minus what its two lost
	// containers had already consumed from the free pool.
	want := total - (cc.MemPerNode - 20*conf.GB)
	if rm.AvailableMem() != want {
		t.Errorf("available = %v, want %v", rm.AvailableMem(), want)
	}
	m := tr.Metrics()
	if got := m.Counter("yarn.node_failures"); got != 1 {
		t.Errorf("yarn.node_failures = %d, want 1", got)
	}
	// Lost containers are unknown to the RM now.
	if err := rm.Release(lost[0].ID); !errors.Is(err, ErrUnknownContainer) {
		t.Errorf("release of lost container: %v", err)
	}
	// A second failure of the down node is a no-op; restore brings
	// capacity back.
	if again, err := rm.FailNodes([]int{node}); err != nil || len(again) != 0 {
		t.Errorf("failing a down node: lost %d, err %v", len(again), err)
	}
	if got := m.Counter("yarn.node_failures"); got != 1 {
		t.Errorf("yarn.node_failures = %d after failing a down node, want 1", got)
	}
	if err := rm.RestoreNode(node); err != nil {
		t.Fatalf("RestoreNode: %v", err)
	}
	if rm.LiveNodes() != cc.Nodes {
		t.Errorf("live nodes after restore = %d", rm.LiveNodes())
	}
	if got := m.Counter("yarn.node_restores"); got != 1 {
		t.Errorf("yarn.node_restores = %d, want 1", got)
	}
	if err := rm.RestoreNode(node); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("restore of a live node: %v", err)
	}
	if _, err := rm.FailNodes([]int{99}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("FailNodes(99): %v", err)
	}
}

func TestAllocateSkipsFailedNodes(t *testing.T) {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	rm := NewResourceManager(cc)
	if _, err := rm.FailNodes([]int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1; i++ {
		c, err := rm.Allocate(80 * conf.GB)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if c.Node != 1 {
			t.Errorf("allocated on failed node %d", c.Node)
		}
	}
	if _, err := rm.Allocate(conf.GB); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("full cluster: %v", err)
	}
}

// TestConcurrentFailureAndAllocation hammers the RM with concurrent
// allocates, releases, node failures and restores (run with -race).
func TestConcurrentFailureAndAllocation(t *testing.T) {
	cc := conf.DefaultCluster()
	rm := NewResourceManager(cc)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if c, err := rm.Allocate(conf.Bytes(1+g%3) * conf.GB); err == nil {
					_ = rm.Release(c.ID)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			node := i % cc.Nodes
			if _, err := rm.FailNodes([]int{node}); err == nil {
				_ = rm.RestoreNode(node)
			}
		}
	}()
	wg.Wait()
	if rm.LiveNodes() != cc.Nodes {
		t.Errorf("live nodes = %d after restore-all", rm.LiveNodes())
	}
}
