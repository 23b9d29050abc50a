package conf

import "fmt"

// Cluster describes a YARN cluster configuration cc as obtained from the
// ResourceManager in step 1 of the resource optimizer (paper §2.4): node
// resources, allocation constraints and HDFS parameters.
type Cluster struct {
	// Nodes is the number of worker nodes (NodeManagers).
	Nodes int `json:"nodes"`
	// CoresPerNode is the number of physical cores per worker node.
	CoresPerNode int `json:"cores_per_node"`
	// MemPerNode is the NodeManager resource capacity per worker node.
	MemPerNode Bytes `json:"mem_per_node"`
	// MinAlloc is YARN's minimum container allocation (scheduler constraint).
	MinAlloc Bytes `json:"min_alloc"`
	// MaxAlloc is YARN's maximum container allocation (scheduler constraint).
	MaxAlloc Bytes `json:"max_alloc"`
	// HDFSBlockSize is the DFS block size, which determines input splits.
	HDFSBlockSize Bytes `json:"hdfs_block_size"`
	// Reducers is the default number of reduce tasks for MR jobs.
	Reducers int `json:"reducers"`
	// ContainerOverhead is the factor by which a container request exceeds
	// the requested max heap size (to account for JVM overheads). The paper
	// requests memory of 1.5x the max heap size.
	ContainerOverhead float64 `json:"container_overhead"`
	// CPBudgetRatio is the fraction of the max heap usable as the control
	// program's operation memory budget (the paper uses 70%).
	CPBudgetRatio float64 `json:"cp_budget_ratio"`
}

// DefaultCluster returns the paper's experimental cluster (§5.1): 6 worker
// nodes with 2x6 cores and 96 GB RAM, NodeManagers configured with 80 GB,
// min/max allocation of 512 MB / 80 GB, HDFS block size 128 MB, 12 reducers.
func DefaultCluster() Cluster {
	return Cluster{
		Nodes:             6,
		CoresPerNode:      12,
		MemPerNode:        80 * GB,
		MinAlloc:          512 * MB,
		MaxAlloc:          80 * GB,
		HDFSBlockSize:     128 * MB,
		Reducers:          12,
		ContainerOverhead: 1.5,
		CPBudgetRatio:     0.70,
	}
}

// Validate reports configuration errors that would make the cluster unusable.
func (c Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("conf: cluster needs at least one node, got %d", c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("conf: cluster needs at least one core per node, got %d", c.CoresPerNode)
	case c.MemPerNode <= 0:
		return fmt.Errorf("conf: non-positive node memory %v", c.MemPerNode)
	case c.MinAlloc <= 0 || c.MaxAlloc < c.MinAlloc:
		return fmt.Errorf("conf: invalid allocation constraints [%v, %v]", c.MinAlloc, c.MaxAlloc)
	case c.HDFSBlockSize <= 0:
		return fmt.Errorf("conf: non-positive HDFS block size %v", c.HDFSBlockSize)
	case c.ContainerOverhead < 1:
		return fmt.Errorf("conf: container overhead %.2f < 1", c.ContainerOverhead)
	case c.CPBudgetRatio <= 0 || c.CPBudgetRatio > 1:
		return fmt.Errorf("conf: CP budget ratio %.2f outside (0,1]", c.CPBudgetRatio)
	}
	return nil
}

// MinHeap returns the smallest requestable max-heap size: the size whose
// container request (heap * overhead) equals the minimum allocation.
func (c Cluster) MinHeap() Bytes {
	return Bytes(float64(c.MinAlloc) / c.ContainerOverhead)
}

// MaxHeap returns the largest requestable max-heap size: the size whose
// container request (heap * overhead) equals the maximum allocation.
// For the default cluster this is 80GB/1.5 ~= 53.3GB, matching the paper.
func (c Cluster) MaxHeap() Bytes {
	return Bytes(float64(c.MaxAlloc) / c.ContainerOverhead)
}

// ContainerSize returns the container request for a given max heap size,
// clamped to the cluster's allocation constraints.
func (c Cluster) ContainerSize(heap Bytes) Bytes {
	req := Bytes(float64(heap) * c.ContainerOverhead)
	if req < c.MinAlloc {
		req = c.MinAlloc
	}
	if req > c.MaxAlloc {
		req = c.MaxAlloc
	}
	return req
}

// OpBudget returns the operation memory budget available to a control
// program with the given max heap size (CPBudgetRatio of the heap).
func (c Cluster) OpBudget(heap Bytes) Bytes {
	return Bytes(float64(heap) * c.CPBudgetRatio)
}

// ScheduledTasksPerNode returns how many task containers of the given heap
// size YARN schedules on one worker node. YARN's DefaultResourceCalculator
// considers memory only (paper §6), so this is purely memory-based; values
// above the core count over-subscribe the CPU and cause cache thrashing.
func (c Cluster) ScheduledTasksPerNode(taskHeap Bytes) int {
	cs := c.ContainerSize(taskHeap)
	if cs <= 0 {
		return 0
	}
	slots := int(c.MemPerNode / cs)
	if slots < 0 {
		slots = 0
	}
	return slots
}

// TotalCores returns the aggregate worker core count of the cluster.
func (c Cluster) TotalCores() int { return c.Nodes * c.CoresPerNode }
