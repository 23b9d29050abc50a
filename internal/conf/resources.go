package conf

import (
	"fmt"
	"slices"
	"strings"
)

// Resources is a resource configuration R_P = (r_c, r_1, ..., r_n) for an ML
// program with n program blocks (paper Definition 1): the control program's
// max heap size plus one MR task max heap size per program block.
type Resources struct {
	// CP is the control program (master process) max heap size r_c.
	CP Bytes
	// MR holds the MR task max heap size r_i for each program block B_i.
	// Blocks whose operations all run in CP still carry an (irrelevant)
	// entry so indices align with the block list.
	MR []Bytes
	// CPCores is the control program's core count (0 or 1 = the paper's
	// single-threaded CP runtime). Enumerating it adds the additional
	// resource dimension sketched in §6: multi-threaded CP operations
	// compute faster but inflate memory requirements, and YARN's
	// DefaultResourceCalculator ignores cores for scheduling.
	CPCores int
}

// NewResources builds a resource vector with a uniform MR task size across
// n program blocks.
func NewResources(cp Bytes, mr Bytes, n int) Resources {
	r := Resources{CP: cp, MR: make([]Bytes, n)}
	for i := range r.MR {
		r.MR[i] = mr
	}
	return r
}

// Clone returns a deep copy of the resource vector.
func (r Resources) Clone() Resources {
	c := Resources{CP: r.CP, MR: make([]Bytes, len(r.MR)), CPCores: r.CPCores}
	copy(c.MR, r.MR)
	return c
}

// Equal reports whether two resource vectors agree in CP, CPCores and
// every MR entry.
func (r Resources) Equal(o Resources) bool {
	return r.CP == o.CP && r.CPCores == o.CPCores && slices.Equal(r.MR, o.MR)
}

// Cores returns the effective CP core count (at least 1).
func (r Resources) Cores() int {
	if r.CPCores < 1 {
		return 1
	}
	return r.CPCores
}

// WithCores returns a copy of the vector with the CP core count set (the
// MR slice is shared; values below 1 select the single-threaded CP). The
// count is threaded from the cmd flags through the optimizer's core
// enumeration into the cost model, which divides CP compute by it, and the
// parfor plan, which runs up to that many workers.
func (r Resources) WithCores(cores int) Resources {
	r.CPCores = cores
	return r
}

// MRFor returns the MR task heap for block i, falling back to the first
// entry (or CP) when the vector is shorter than the block list. This makes
// uniform vectors usable against programs of any size.
func (r Resources) MRFor(i int) Bytes {
	if i >= 0 && i < len(r.MR) {
		return r.MR[i]
	}
	if len(r.MR) > 0 {
		return r.MR[0]
	}
	return r.CP
}

// MaxMR returns the largest MR task heap in the vector (0 if none).
func (r Resources) MaxMR() Bytes {
	var m Bytes
	for _, v := range r.MR {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders the configuration as "CP/maxMR", e.g. "8GB/2GB",
// matching the presentation of Table 2 in the paper.
func (r Resources) String() string {
	return fmt.Sprintf("%v/%v", r.CP, r.MaxMR())
}

// Detailed renders the full vector including per-block MR sizes.
func (r Resources) Detailed() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cp=%v mr=[", r.CP)
	for i, v := range r.MR {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(']')
	return sb.String()
}
