package lop

import (
	"slices"

	"elasticml/internal/conf"
	"elasticml/internal/hop"
)

// physical chooses the physical MR operator for a hop scheduled to MR,
// deciding broadcasts against the MR task budget (paper Appendix B:
// map-side operators require one input to fit in the mapper memory,
// similar to broadcast joins).
func (s *selector) physical(h *hop.Hop, mr *budget, ci chainInfo) *MROp {
	op := &MROp{Hop: h}
	fits := func(x *hop.Hop) bool {
		return x != nil && x.DataType == hop.Matrix &&
			!hop.InfiniteMem(x.OutMem) && mr.fits(x.OutMem)
	}

	switch h.Kind {
	case hop.KindMatMul:
		if ci.v != nil { // chain head
			op.Phys = PhysMapMMChain
			op.Broadcast = append(op.Broadcast, ci.v)
			if ci.w != nil {
				op.Broadcast = append(op.Broadcast, ci.w)
			}
			return op
		}
		l, r := h.Inputs[0], h.Inputs[1]
		// TSMM: t(X) %*% X computed in a single pass with a tiny k x k
		// aggregation.
		if h.TransA && l == r {
			op.Phys = PhysTSMM
			return op
		}
		// MapMM: broadcast the smaller side if it fits.
		small, big := l, r
		if sizeOf(r) < sizeOf(l) {
			small, big = r, l
		}
		if fits(small) {
			op.Phys = PhysMapMM
			op.Broadcast = []*hop.Hop{small}
			_ = big
			return op
		}
		// Shuffle-based matrix multiply: RMM for modest replication,
		// CPMM otherwise; cost-wise both shuffle the full inputs.
		op.Phys = PhysCPMM
		op.Shuffles = true
		return op

	case hop.KindBinary:
		l, r := h.Inputs[0], h.Inputs[1]
		// Matrix-scalar and unary-like cases are map-only.
		if l.IsScalar() || r.IsScalar() {
			op.Phys = PhysMapUnary
			return op
		}
		small, _ := l, r
		if sizeOf(r) < sizeOf(l) {
			small = r
		}
		if fits(small) {
			op.Phys = PhysMapBinary
			op.Broadcast = []*hop.Hop{small}
			return op
		}
		op.Phys = PhysShuffleBinary
		op.Shuffles = true
		return op

	case hop.KindUnary:
		op.Phys = PhysMapUnary
		return op

	case hop.KindAggUnary, hop.KindTernaryAgg:
		// Partial aggregation in mappers with combiners; the cross-task
		// merge is tiny.
		op.Phys = PhysAgg
		// Ternary aggregates scan co-partitioned inputs; broadcast the
		// small ones.
		if h.Kind == hop.KindTernaryAgg {
			for _, in := range h.Inputs[1:] {
				if fits(in) && sizeOf(in) < sizeOf(h.Inputs[0]) {
					op.Broadcast = append(op.Broadcast, in)
				}
			}
		}
		return op

	case hop.KindReorg:
		op.Phys = PhysReorg
		op.Shuffles = true
		return op

	case hop.KindDataGen:
		op.Phys = PhysDataGen
		return op

	case hop.KindSeq:
		op.Phys = PhysSeq
		return op

	case hop.KindAppend:
		l, r := h.Inputs[0], h.Inputs[1]
		if fits(r) && sizeOf(r) <= sizeOf(l) {
			op.Phys = PhysAppend
			op.Broadcast = []*hop.Hop{r}
			return op
		}
		op.Phys = PhysAppend
		op.Shuffles = true
		return op

	case hop.KindIndex:
		op.Phys = PhysIndex
		return op

	case hop.KindLeftIndex:
		// Broadcast the (usually small) right-hand side.
		if v := h.Inputs[1]; fits(v) {
			op.Broadcast = []*hop.Hop{v}
		} else {
			op.Shuffles = true
		}
		op.Phys = PhysLeftIndex
		return op

	case hop.KindTable:
		op.Phys = PhysTable
		return op

	case hop.KindDiag:
		op.Phys = PhysMapUnary
		return op

	default:
		op.Phys = PhysMapUnary
		return op
	}
}

// sizeOf is a hop's output size for broadcast decisions; unknown sizes are
// infinite.
func sizeOf(h *hop.Hop) conf.Bytes {
	if h == nil || h.DataType != hop.Matrix {
		return 0
	}
	return h.OutMem
}

// canMerge reports whether an operator can piggyback onto the open job:
// the combined broadcast memory must fit the MR task budget, at most one
// shuffle phase is allowed, and an operator may consume a shuffling
// operator's output only across a job boundary.
func (s *selector) canMerge(job *MRJob, op *MROp, jobOf []*MRJob, mr *budget) bool {
	if op.Shuffles && job.Shuffles() {
		return false
	}
	// Inputs produced inside this job must come from non-shuffling ops.
	for _, in := range op.Hop.Inputs {
		if in == nil {
			continue
		}
		if jobOf[in.Pos] == job {
			for _, jo := range job.Ops {
				if jo.Hop == in && jo.Shuffles {
					return false
				}
			}
		}
	}
	var bcast conf.Bytes
	for _, jo := range job.Ops {
		for _, b := range jo.Broadcast {
			bcast += b.OutMem
		}
	}
	for _, b := range op.Broadcast {
		bcast += b.OutMem
	}
	return mr.fits(bcast)
}

// addToJob places the operator into the job, updating scan inputs and the
// producer table.
func (s *selector) addToJob(job *MRJob, op *MROp, jobOf []*MRJob) {
	job.Ops = append(job.Ops, op)
	jobOf[op.Hop.Pos] = job
	for _, in := range scanInputsOf(op) {
		if jobOf[in.Pos] != job && !slices.Contains(op.Broadcast, in) && !slices.Contains(job.ScanInputs, in) {
			job.ScanInputs = append(job.ScanInputs, in)
		}
	}
}

// scanInputsOf returns the matrix inputs streamed by mappers (non-broadcast
// operands). MapMMChain scans X directly rather than its fused transpose.
func scanInputsOf(op *MROp) []*hop.Hop {
	if op.Phys == PhysMapMMChain || op.Phys == PhysTSMM {
		// X is scanned exactly once; the rest of the pattern is fused.
		return []*hop.Hop{op.Hop.Inputs[0]}
	}
	var out []*hop.Hop
	for _, in := range op.Hop.Inputs {
		if in != nil && in.DataType == hop.Matrix {
			out = append(out, in)
		}
	}
	return out
}
