// Package lop implements the low-level operator layer of the compiler:
// CP-vs-MR operator selection based on memory estimates, physical operator
// choice for memory-sensitive operations (MapMM, MapMMChain, TSMM, CPMM,
// map-side binary), and piggybacking of MR operators into a minimal number
// of MR jobs under memory constraints (paper §2.1, Appendix B, Table 4).
// Its output is the executable runtime plan consumed by the cost model and
// the runtime interpreter.
package lop

import (
	"fmt"
	"strings"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hop"
)

// PhysicalOp identifies the chosen physical operator of an MR operator.
type PhysicalOp int

// Physical MR operators.
const (
	PhysNone       PhysicalOp = iota
	PhysMapMM                 // map-side matrix mult, one operand broadcast
	PhysMapMMChain            // fused t(X)(w*(Xv)) chain, single pass over X
	PhysTSMM                  // transpose-self matrix mult t(X)X
	PhysCPMM                  // cross-product shuffle matrix mult
	PhysRMM                   // replication-based shuffle matrix mult
	PhysMapBinary             // map-side elementwise with broadcast operand
	PhysShuffleBinary
	PhysMapUnary
	PhysAgg     // partial aggregates with combiner
	PhysReorg   // transpose via full shuffle
	PhysDataGen // distributed data generation
	PhysAppend
	PhysIndex
	PhysTable
	PhysLeftIndex
	PhysSeq
)

func (p PhysicalOp) String() string {
	switch p {
	case PhysMapMM:
		return "mapmm"
	case PhysMapMMChain:
		return "mapmmchain"
	case PhysTSMM:
		return "tsmm"
	case PhysCPMM:
		return "cpmm"
	case PhysRMM:
		return "rmm"
	case PhysMapBinary:
		return "map*"
	case PhysShuffleBinary:
		return "shuffle*"
	case PhysMapUnary:
		return "mapu"
	case PhysAgg:
		return "uagg"
	case PhysReorg:
		return "r'"
	case PhysDataGen:
		return "rand"
	case PhysAppend:
		return "append"
	case PhysIndex:
		return "rix"
	case PhysTable:
		return "ctable"
	case PhysLeftIndex:
		return "lix"
	case PhysSeq:
		return "seq"
	}
	return "none"
}

// MROp is one HOP operator placed inside an MR job.
type MROp struct {
	Hop  *hop.Hop
	Phys PhysicalOp
	// Broadcast lists the inputs loaded into every map task's memory
	// (distributed cache), constrained by the MR task budget.
	Broadcast []*hop.Hop
	// Shuffles reports whether the operator requires a shuffle phase.
	Shuffles bool
}

// MRJob is one MR-job instruction packing one or more MR operators
// (piggybacking). Scanned inputs are read from HDFS by map tasks.
type MRJob struct {
	Ops []*MROp
	// ScanInputs are the HDFS-resident matrix inputs streamed by mappers.
	ScanInputs []*hop.Hop
	// Exports are CP-resident variables that must be written to HDFS
	// before the job starts.
	Exports []*hop.Hop
}

// Name renders the job label, e.g. "GMR(mapmm,uak+)".
func (j *MRJob) Name() string {
	ops := make([]string, len(j.Ops))
	for i, o := range j.Ops {
		ops[i] = o.Phys.String()
	}
	return "GMR(" + strings.Join(ops, ",") + ")"
}

// Shuffles reports whether any packed operator shuffles.
func (j *MRJob) Shuffles() bool {
	for _, o := range j.Ops {
		if o.Shuffles {
			return true
		}
	}
	return false
}

// InstrKind distinguishes plan instructions.
type InstrKind int

// Instruction kinds.
const (
	InstrCP InstrKind = iota
	InstrMR
)

// Instr is one runtime instruction of a generic block: either a CP
// operation over one hop or an MR job over several.
type Instr struct {
	Kind InstrKind
	Hop  *hop.Hop // CP instruction target
	Job  *MRJob   // MR job
}

func (i Instr) String() string {
	if i.Kind == InstrMR {
		return i.Job.Name()
	}
	return fmt.Sprintf("CP %s", i.Hop)
}

// Label renders a stable operator label without instance-specific
// dimensions — the join key between cost-model predictions and trace spans
// (the same operator keeps its label across dynamic recompilations, whereas
// hop IDs do not survive them).
func (i Instr) Label() string {
	if i.Kind == InstrMR {
		return "MR " + i.Job.Name()
	}
	label := i.Hop.Kind.String()
	if i.Hop.Op != "" {
		label += "(" + i.Hop.Op + ")"
	}
	return "CP " + label
}

// Block is one program block of the runtime plan.
type Block struct {
	Kind  dml.BlockKind
	Index int
	// Instrs is the execution sequence of a generic block.
	Instrs []Instr
	// JobOf maps a generic block's hops, by hop.Hop.Pos, to the MR job
	// producing them; nil for hops computed in CP or not executed.
	JobOf []*MRJob
	// Pred holds the predicate evaluation instructions of if/while blocks
	// (always CP: predicates are scalar DAGs).
	Pred *hop.Hop
	// For header.
	Var      string
	From, To *hop.Hop
	// Children.
	Then, Else, Body []*Block
	// HopBlock links back for dynamic recompilation.
	HopBlock *hop.Block
	// KnownIters is the static trip count (hop.Unknown if dynamic).
	KnownIters int64
	// Parallel marks parfor blocks (concurrent iterations).
	Parallel bool
	// Recompile marks blocks subject to dynamic recompilation.
	Recompile bool
}

// Plan is a compiled runtime plan for a full program under one resource
// configuration.
type Plan struct {
	Blocks    []*Block
	Resources conf.Resources
	// HopProgram links back to the HOP program (for re-optimization and
	// migration, which recompile from source).
	HopProgram *hop.Program
}

// WalkBlocks visits all plan blocks in pre-order.
func WalkBlocks(blocks []*Block, fn func(*Block)) {
	for _, b := range blocks {
		fn(b)
		WalkBlocks(b.Then, fn)
		WalkBlocks(b.Else, fn)
		WalkBlocks(b.Body, fn)
	}
}

// NumMRJobs counts the MR-job instructions in the given blocks.
func NumMRJobs(blocks []*Block) int {
	n := 0
	WalkBlocks(blocks, func(b *Block) {
		for _, in := range b.Instrs {
			if in.Kind == InstrMR {
				n++
			}
		}
	})
	return n
}
