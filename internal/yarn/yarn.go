// Package yarn simulates the request-based resource negotiation framework
// the paper targets (§2.2): a per-cluster ResourceManager tracking node
// capacities and min/max allocation constraints, container allocation and
// release, NodeManager failure with container loss, and a discrete-event
// application scheduler used by the throughput experiments (Figure 12,
// Table 6).
package yarn

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"

	"elasticml/internal/conf"
	"elasticml/internal/obs"
)

// Typed error conditions surfaced by the ResourceManager. Callers test
// them with errors.Is; messages carry the request-specific context.
var (
	// ErrOverMaxAllocation rejects requests exceeding the cluster's
	// maximum container allocation (real YARN throws
	// InvalidResourceRequestException rather than clamping down).
	ErrOverMaxAllocation = errors.New("yarn: request over maximum allocation")
	// ErrUnknownContainer rejects releases of container IDs the RM does
	// not track (never granted, double-released, or lost with a node).
	ErrUnknownContainer = errors.New("yarn: unknown container")
	// ErrNoCapacity means no live node can currently satisfy the request.
	ErrNoCapacity = errors.New("yarn: no node with sufficient capacity")
	// ErrUnknownNode rejects operations on node indices outside the
	// cluster.
	ErrUnknownNode = errors.New("yarn: unknown node")
)

// ContainerID identifies an allocated container.
type ContainerID int64

// Container is a granted resource allocation on one node.
type Container struct {
	ID   ContainerID
	Node int
	Mem  conf.Bytes
}

// ResourceManager is the per-cluster daemon that schedules resource
// requests against NodeManager capacities. It is safe for concurrent use.
type ResourceManager struct {
	mu        sync.Mutex
	cc        conf.Cluster
	freeMem   []conf.Bytes
	failed    []bool
	speed     []float64 // execution slowdown per node (1 = full speed)
	nextID    ContainerID
	allocated map[ContainerID]Container
	trace     *obs.Tracer
}

// SetTracer attaches an observability tracer: allocations, releases, node
// failures/restores and slow-node episodes are recorded as cluster-layer
// instant events plus yarn.* counters. A nil tracer detaches.
func (rm *ResourceManager) SetTracer(tr *obs.Tracer) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.trace = tr
}

// NewResourceManager returns an RM for the given cluster configuration.
func NewResourceManager(cc conf.Cluster) *ResourceManager {
	free := make([]conf.Bytes, cc.Nodes)
	speed := make([]float64, cc.Nodes)
	for i := range free {
		free[i] = cc.MemPerNode
		speed[i] = 1
	}
	return &ResourceManager{
		cc:        cc,
		freeMem:   free,
		failed:    make([]bool, cc.Nodes),
		speed:     speed,
		allocated: make(map[ContainerID]Container),
	}
}

// Allocate grants a container of the requested memory on the live node
// with the most free memory (worst-fit keeps large allocations feasible).
// Requests below the minimum allocation are rounded up, matching YARN's
// scheduler; requests above the maximum allocation are rejected with
// ErrOverMaxAllocation, and a momentarily full cluster yields
// ErrNoCapacity.
func (rm *ResourceManager) Allocate(mem conf.Bytes) (Container, error) {
	cs, err := rm.AllocateGroup(1, mem)
	if err != nil {
		return Container{}, err
	}
	return cs[0], nil
}

// AllocateGroup grants n containers of the requested memory atomically:
// either every container is placed (worst-fit, one at a time, by the rule
// Allocate documents) or none is and the cluster state —
// including the container ID sequence — is left untouched. The malleable
// workload service uses it to claim a job's full width in one step, so a
// partially granted width can never leak containers.
func (rm *ResourceManager) AllocateGroup(n int, mem conf.Bytes) ([]Container, error) {
	if n < 1 {
		return nil, fmt.Errorf("yarn: group of %d containers", n)
	}
	if mem > rm.cc.MaxAlloc {
		return nil, fmt.Errorf("%w: %v exceeds max allocation %v (largest grantable container)",
			ErrOverMaxAllocation, mem, rm.cc.MaxAlloc)
	}
	req := mem
	if req < rm.cc.MinAlloc {
		req = rm.cc.MinAlloc
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	granted := make([]Container, 0, n)
	for k := 0; k < n; k++ {
		best := -1
		for i, free := range rm.freeMem {
			if rm.failed[i] {
				continue
			}
			if free >= req && (best < 0 || free > rm.freeMem[best]) {
				best = i
			}
		}
		if best < 0 {
			// Roll back every provisional grant, restoring the ID sequence
			// so a failed group attempt is invisible to later allocations.
			for _, c := range granted {
				rm.freeMem[c.Node] += req
				delete(rm.allocated, c.ID)
			}
			rm.nextID -= ContainerID(len(granted))
			return nil, fmt.Errorf("%w: need %v, max free %v", ErrNoCapacity, req, rm.maxFreeLocked())
		}
		rm.freeMem[best] -= req
		rm.nextID++
		c := Container{ID: rm.nextID, Node: best, Mem: req}
		rm.allocated[c.ID] = c
		granted = append(granted, c)
	}
	for _, c := range granted {
		rm.trace.Instant(obs.LayerCluster, "container.alloc",
			obs.A("id", int64(c.ID)), obs.A("node", c.Node), obs.A("mem", c.Mem.String()))
		rm.trace.Metrics().Add("yarn.allocations", 1)
	}
	return granted, nil
}

func (rm *ResourceManager) maxFreeLocked() conf.Bytes {
	var m conf.Bytes
	for i, f := range rm.freeMem {
		if rm.failed[i] {
			continue
		}
		if f > m {
			m = f
		}
	}
	return m
}

// Release returns a container's resources to its node. Releasing an ID
// the RM does not track yields ErrUnknownContainer.
func (rm *ResourceManager) Release(id ContainerID) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	c, ok := rm.allocated[id]
	if !ok {
		return fmt.Errorf("%w: release of container %d", ErrUnknownContainer, id)
	}
	delete(rm.allocated, id)
	if !rm.failed[c.Node] {
		rm.freeMem[c.Node] += c.Mem
	}
	rm.trace.Instant(obs.LayerCluster, "container.release",
		obs.A("id", int64(id)), obs.A("node", c.Node))
	rm.trace.Metrics().Add("yarn.releases", 1)
	return nil
}

// FailNodes fails a group of NodeManagers atomically — the correlated
// rack-loss primitive of the chaos layer: capacity of every group member
// disappears in one step, and every container on a lost node dies with it
// (a later Release of its ID returns ErrUnknownContainer, as after a real
// NM expiry). Already-failed group members are skipped (a storm may target
// a down node); out-of-range indices yield ErrUnknownNode without failing
// anything. The lost containers are returned in ascending node order, by
// ID within a node.
func (rm *ResourceManager) FailNodes(nodes []int) ([]Container, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, node := range nodes {
		if node < 0 || node >= len(rm.freeMem) {
			return nil, fmt.Errorf("%w: node %d of %d", ErrUnknownNode, node, len(rm.freeMem))
		}
	}
	var allLost []Container
	failed := 0
	for _, node := range nodes {
		if rm.failed[node] {
			continue
		}
		rm.failed[node] = true
		rm.freeMem[node] = 0
		failed++
		var lost []Container
		for id, c := range rm.allocated {
			if c.Node == node {
				lost = append(lost, c)
				delete(rm.allocated, id)
			}
		}
		sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
		allLost = append(allLost, lost...)
	}
	if failed == 0 {
		return nil, nil
	}
	rm.trace.Instant(obs.LayerCluster, "node.group-fail",
		obs.A("nodes", failed), obs.A("lost_containers", len(allLost)))
	rm.trace.Metrics().Add("yarn.node_failures", int64(failed))
	return allLost, nil
}

// SetNodeSpeed marks a live NodeManager as a straggler (factor > 1) or
// restores it to full speed (factor == 1). The RM only bookkeeps the
// factor — the discrete-event schedulers consuming it decide how resident
// work slows.
func (rm *ResourceManager) SetNodeSpeed(node int, factor float64) error {
	if factor < 1 {
		return fmt.Errorf("yarn: node speed factor %g < 1", factor)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if node < 0 || node >= len(rm.speed) {
		return fmt.Errorf("%w: node %d of %d", ErrUnknownNode, node, len(rm.speed))
	}
	if rm.speed[node] == factor {
		return nil
	}
	rm.speed[node] = factor
	name := "node.slowed"
	if factor == 1 {
		name = "node.recovered"
	}
	rm.trace.Instant(obs.LayerCluster, name, obs.A("node", node), obs.A("factor", factor))
	rm.trace.Metrics().Add("yarn.node_slow_events", 1)
	return nil
}

// NodeSpeed returns a node's current execution slowdown (1 = full speed).
func (rm *ResourceManager) NodeSpeed(node int) float64 {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if node < 0 || node >= len(rm.speed) {
		return 1
	}
	return rm.speed[node]
}

// RestoreNode re-registers a failed NodeManager with full, empty capacity.
func (rm *ResourceManager) RestoreNode(node int) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if node < 0 || node >= len(rm.freeMem) {
		return fmt.Errorf("%w: node %d of %d", ErrUnknownNode, node, len(rm.freeMem))
	}
	if !rm.failed[node] {
		return fmt.Errorf("%w: node %d is not failed", ErrUnknownNode, node)
	}
	rm.failed[node] = false
	rm.freeMem[node] = rm.cc.MemPerNode
	rm.speed[node] = 1 // a re-registered NM starts at full speed
	rm.trace.Instant(obs.LayerCluster, "node.manager-restore", obs.A("node", node))
	rm.trace.Metrics().Add("yarn.node_restores", 1)
	return nil
}

// LiveNodes returns the number of non-failed NodeManagers.
func (rm *ResourceManager) LiveNodes() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	n := 0
	for _, f := range rm.failed {
		if !f {
			n++
		}
	}
	return n
}

// AvailableMem returns the aggregate free memory across live nodes.
func (rm *ResourceManager) AvailableMem() conf.Bytes {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	var total conf.Bytes
	for i, f := range rm.freeMem {
		if rm.failed[i] {
			continue
		}
		total += f
	}
	return total
}

// MaxFreeChunk returns the largest contiguous free allocation any single
// live node can currently grant — the upper bound on the next container
// request, and the "currently free cluster slice" the workload service
// clamps per-job optimization to.
func (rm *ResourceManager) MaxFreeChunk() conf.Bytes {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.maxFreeLocked()
}

// FreeOnNode returns the free memory on one live node (0 for a failed
// node), used to decide whether a running application's container can grow
// in place.
func (rm *ResourceManager) FreeOnNode(node int) (conf.Bytes, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if node < 0 || node >= len(rm.freeMem) {
		return 0, fmt.Errorf("%w: node %d of %d", ErrUnknownNode, node, len(rm.freeMem))
	}
	if rm.failed[node] {
		return 0, nil
	}
	return rm.freeMem[node], nil
}

// AllocatedCount returns the number of live containers.
func (rm *ResourceManager) AllocatedCount() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.allocated)
}

// MaxConcurrentApps returns how many applications with the given AM
// container request can run simultaneously — the application-parallelism
// arithmetic of the throughput experiment (paper §5.3):
// nodes * floor(nodeMem / containerSize).
func MaxConcurrentApps(cc conf.Cluster, amHeap conf.Bytes) int {
	per := int(cc.MemPerNode / cc.ContainerSize(amHeap))
	return per * cc.Nodes
}

// ThroughputSpec describes a multi-user throughput experiment: each of
// Users drivers submits AppsPerUser applications back-to-back; every
// application requests one AM container of AMHeap max heap (1.5x container
// request) and holds it for Duration seconds.
type ThroughputSpec struct {
	Users       int
	AppsPerUser int
	AMHeap      conf.Bytes
	Duration    float64
}

// ThroughputResult reports the simulated outcome.
type ThroughputResult struct {
	// Makespan is the total driver execution time in seconds.
	Makespan float64
	// AppsPerMinute is total applications / makespan minutes.
	AppsPerMinute float64
	// MaxParallel is the peak number of concurrently running apps.
	MaxParallel int
}

// event is a discrete-event entry: at Time, the app of user U finishes.
type event struct {
	time float64
	user int
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].time < h[j].time }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// SimulateThroughput runs the discrete-event FIFO scheduling of the
// throughput experiment and returns the achieved throughput. Applications
// that cannot obtain a container queue in submission order.
func SimulateThroughput(cc conf.Cluster, spec ThroughputSpec) ThroughputResult {
	if spec.Users <= 0 || spec.AppsPerUser <= 0 || spec.Duration <= 0 {
		return ThroughputResult{}
	}
	capacity := MaxConcurrentApps(cc, spec.AMHeap)

	remaining := make([]int, spec.Users) // apps left per user
	for i := range remaining {
		remaining[i] = spec.AppsPerUser
	}
	var (
		running, finished int
		queue             []int // user indices waiting for a container
		events            eventHeap
		res               ThroughputResult
	)
	total := spec.Users * spec.AppsPerUser

	start := func(user int, now float64) {
		remaining[user]--
		running++
		res.MaxParallel = max(res.MaxParallel, running)
		heap.Push(&events, event{time: now + spec.Duration, user: user})
	}

	// All users submit their first app at t=0.
	for u := 0; u < spec.Users; u++ {
		if running < capacity {
			start(u, 0)
		} else {
			queue = append(queue, u)
		}
	}
	for finished < total {
		ev := heap.Pop(&events).(event)
		res.Makespan = ev.time
		running--
		finished++
		// The finishing user immediately submits its next app (queued).
		if remaining[ev.user] > 0 {
			queue = append(queue, ev.user)
		}
		// Admit queued apps while capacity allows.
		for len(queue) > 0 && running < capacity {
			u := queue[0]
			queue = queue[1:]
			start(u, res.Makespan)
		}
	}
	if res.Makespan > 0 {
		res.AppsPerMinute = float64(total) / (res.Makespan / 60)
	}
	return res
}
