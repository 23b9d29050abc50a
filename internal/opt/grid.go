// Package opt implements the paper's primary contribution: the cost-based
// resource optimizer for ML programs (§3). Given a HOP program and a
// cluster configuration it solves the ML Program Resource Allocation
// Problem (Definition 1) by grid enumeration over CP and per-block MR
// memory configurations, recompiling and costing generated runtime plans
// for each candidate, with program-aware pruning and optional task-parallel
// enumeration (Appendix C). The same optimizer serves initial optimization
// and runtime re-optimization (§4).
package opt

import (
	"fmt"
	"sort"
	"strings"

	"elasticml/internal/conf"
	"elasticml/internal/hop"
)

// GridType selects a grid point generation strategy (§3.3.2).
type GridType int

// Grid generators.
const (
	// GridEqui is the equi-spaced grid: systematic coverage, linear point
	// count.
	GridEqui GridType = iota
	// GridExp is the exponentially-spaced grid (w=2): logarithmic point
	// count exploiting that plan changes are denser at small memory.
	GridExp
	// GridMem is the memory-based grid: equi-spaced points bracketing the
	// program's operation memory estimates — program-aware directed search.
	GridMem
	// GridHybrid overlays GridMem and GridExp (the default): directed plus
	// systematic search.
	GridHybrid
)

// gridNames holds each generator's name, the one String prints and
// ParseGrid reads.
var gridNames = [...]string{GridEqui: "Equi", GridExp: "Exp", GridMem: "Mem", GridHybrid: "Hybrid"}

func (g GridType) String() string {
	if g < 0 || int(g) >= len(gridNames) {
		return "?"
	}
	return gridNames[g]
}

// ParseGrid returns the generator whose name, in any case, is s.
func ParseGrid(s string) (GridType, error) {
	for g, name := range gridNames {
		if strings.EqualFold(s, name) {
			return GridType(g), nil
		}
	}
	return 0, fmt.Errorf("unknown grid strategy %q", s)
}

// EnumGridPoints materializes ascending max-heap grid points for one
// resource dimension, bounded by the cluster's allocation constraints.
// m is the base grid's point count (used by Equi and Mem).
func EnumGridPoints(hp *hop.Program, cc conf.Cluster, t GridType, m int) []conf.Bytes {
	minH, maxH := cc.MinHeap(), cc.MaxHeap()
	switch t {
	case GridEqui:
		return equiPoints(minH, maxH, m)
	case GridExp:
		return expPoints(minH, maxH)
	case GridMem:
		return memPoints(hp, cc, minH, maxH, m)
	case GridHybrid:
		return dedupeSorted(append(memPoints(hp, cc, minH, maxH, m), expPoints(minH, maxH)...))
	}
	return nil
}

func equiPoints(minH, maxH conf.Bytes, m int) []conf.Bytes {
	if m < 2 {
		m = 2
	}
	gap := (maxH - minH) / conf.Bytes(m-1)
	if gap <= 0 {
		return []conf.Bytes{minH}
	}
	pts := make([]conf.Bytes, 0, m)
	for i := 0; i < m; i++ {
		pts = append(pts, minH+conf.Bytes(i)*gap)
	}
	pts[m-1] = maxH
	return pts
}

func expPoints(minH, maxH conf.Bytes) []conf.Bytes {
	var pts []conf.Bytes
	for p := minH; p < maxH; p *= 2 {
		pts = append(pts, p)
	}
	pts = append(pts, maxH)
	return pts
}

// memPoints brackets each of the program's distinct memory estimates with
// the neighbouring base-grid points; estimates outside the constraints fall
// back to the extreme values (§3.3.2).
func memPoints(hp *hop.Program, cc conf.Cluster, minH, maxH conf.Bytes, m int) []conf.Bytes {
	base := equiPoints(minH, maxH, m)
	ests := MemoryEstimates(hp, cc)
	var pts []conf.Bytes
	for _, est := range ests {
		switch {
		case est <= minH:
			pts = append(pts, minH)
		case est >= maxH:
			pts = append(pts, maxH)
		default:
			// Find the bracketing base points.
			i := sort.Search(len(base), func(i int) bool { return base[i] >= est })
			if i > 0 {
				pts = append(pts, base[i-1])
			}
			if i < len(base) {
				pts = append(pts, base[i])
			}
		}
	}
	if len(pts) == 0 {
		pts = append(pts, minH)
	}
	return dedupeSorted(pts)
}

// MemoryEstimates returns the distinct heap sizes corresponding to the
// operation memory estimates of all matrix operators in the program (the
// heap whose budget ratio covers the estimate): the points where plan
// changes are expected.
func MemoryEstimates(hp *hop.Program, cc conf.Cluster) []conf.Bytes {
	seen := map[conf.Bytes]bool{}
	var ests []conf.Bytes
	hop.WalkBlocks(hp.Blocks, func(b *hop.Block) {
		for _, h := range b.Order {
			if h.DataType != hop.Matrix || hop.InfiniteMem(h.OpMem) || h.OpMem <= 0 {
				continue
			}
			heap := conf.Bytes(float64(h.OpMem) / cc.CPBudgetRatio)
			if !seen[heap] {
				seen[heap] = true
				ests = append(ests, heap)
			}
		}
	})
	sort.Slice(ests, func(i, j int) bool { return ests[i] < ests[j] })
	return ests
}

func dedupeSorted(pts []conf.Bytes) []conf.Bytes {
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := pts[:0]
	var last conf.Bytes = -1
	for _, p := range pts {
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	return out
}
