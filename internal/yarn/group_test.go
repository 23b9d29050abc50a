package yarn

import (
	"errors"
	"testing"

	"elasticml/internal/conf"
)

// groupCluster holds two 1GB nodes: four 512MB containers total.
func groupCluster() conf.Cluster {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	cc.MemPerNode = 1 * conf.GB
	cc.MaxAlloc = 1 * conf.GB
	return cc
}

// TestAllocateGroupSpreadsWorstFit: group members are placed one at a time
// by the same worst-fit rule as single allocations, so a pair lands on
// different nodes of an empty cluster.
func TestAllocateGroupSpreadsWorstFit(t *testing.T) {
	rm := NewResourceManager(groupCluster())
	got, err := rm.AllocateGroup(2, 512*conf.MB)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("granted %d containers, want 2", len(got))
	}
	if got[0].Node == got[1].Node {
		t.Errorf("worst-fit should spread the group, both on node %d", got[0].Node)
	}
	if got[0].ID == got[1].ID {
		t.Errorf("duplicate container IDs in one group: %v", got[0].ID)
	}
	if rm.AllocatedCount() != 2 {
		t.Errorf("allocated count %d, want 2", rm.AllocatedCount())
	}
}

// TestAllocateGroupAtomicRollback: a group that cannot be fully placed
// grants nothing — free memory, the allocation table, and the container ID
// sequence are all restored, so the failed attempt is invisible to later
// allocations.
func TestAllocateGroupAtomicRollback(t *testing.T) {
	rm := NewResourceManager(groupCluster())
	free := rm.AvailableMem()
	_, err := rm.AllocateGroup(5, 512*conf.MB) // capacity is 4
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("got %v, want ErrNoCapacity", err)
	}
	if rm.AvailableMem() != free {
		t.Errorf("rollback left free mem %v, want %v", rm.AvailableMem(), free)
	}
	if rm.AllocatedCount() != 0 {
		t.Errorf("rollback left %d containers allocated", rm.AllocatedCount())
	}
	// The ID sequence must be untouched: the next single allocation gets
	// the same ID as if the failed group had never happened.
	c, err := rm.Allocate(512 * conf.MB)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != 1 {
		t.Errorf("first container after rollback has ID %d, want 1", c.ID)
	}
}

// TestAllocateGroupOfOneMatchesAllocate: n=1 must behave exactly like
// Allocate — same placement, same ID progression, same typed errors.
func TestAllocateGroupOfOneMatchesAllocate(t *testing.T) {
	a := NewResourceManager(groupCluster())
	b := NewResourceManager(groupCluster())
	ca, err := a.Allocate(512 * conf.MB)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.AllocateGroup(1, 512*conf.MB)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != ca {
		t.Errorf("group-of-one %+v differs from Allocate %+v", g[0], ca)
	}
	if _, err := b.AllocateGroup(1, 4*conf.GB); !errors.Is(err, ErrOverMaxAllocation) {
		t.Errorf("over-max group: got %v, want ErrOverMaxAllocation", err)
	}
	if _, err := b.AllocateGroup(0, 512*conf.MB); err == nil {
		t.Error("empty group must be rejected")
	}
}

// TestAllocateGroupSkipsFailedNodes: failed nodes hold no group members,
// and capacity lost to failures triggers the atomic rollback.
func TestAllocateGroupSkipsFailedNodes(t *testing.T) {
	rm := NewResourceManager(groupCluster())
	if _, err := rm.FailNodes([]int{1}); err != nil {
		t.Fatal(err)
	}
	got, err := rm.AllocateGroup(2, 512*conf.MB)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c.Node != 0 {
			t.Errorf("container placed on failed node %d", c.Node)
		}
	}
	if _, err := rm.AllocateGroup(1, 512*conf.MB); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("node 0 is full: got %v, want ErrNoCapacity", err)
	}
}
