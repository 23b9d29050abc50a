// Package hop implements the high-level operator (HOP) layer of the
// compiler: per-statement-block operator DAGs with size and sparsity
// propagation, scalar constant inference (enabling constant folding and
// branch removal), common subexpression elimination, algebraic rewrites,
// and worst-case operation memory estimates (paper §2.1, Appendix B).
//
// Memory estimates computed here are the foundation of all memory-sensitive
// compilation steps: CP-vs-MR operator selection, physical operator choice
// and piggybacking at the LOP layer, and the memory-based grid generator of
// the resource optimizer.
package hop

import (
	"fmt"
	"slices"
	"sync/atomic"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
)

// Unknown marks an unknown dimension or non-zero count.
const Unknown int64 = -1

// Kind classifies HOP operators.
type Kind uint8

// HOP operator kinds.
const (
	KindRead       Kind = iota // persistent read (Name = file path)
	KindWrite                  // persistent write (Inputs[0]=value, Inputs[1]=path hop)
	KindTRead                  // transient read (Name = variable)
	KindTWrite                 // transient write (Name = variable, Inputs[0]=value)
	KindLit                    // scalar literal (Value / StrValue)
	KindDataGen                // matrix(v, rows, cols): Inputs = v, rows, cols
	KindSeq                    // seq(from, to, incr)
	KindUnary                  // elementwise unary or scalar builtin (Op)
	KindBinary                 // elementwise binary or scalar arithmetic (Op)
	KindAggUnary               // full/partial aggregate: sum, min, max, mean, trace, rowSums, colSums, rowMaxs, sumsq
	KindMatMul                 // ba(+*) matrix multiplication
	KindReorg                  // t() transpose
	KindAppend                 // cbind / rbind (Op distinguishes)
	KindIndex                  // right indexing: Inputs = X, rl, ru, cl, cu (nil => full)
	KindLeftIndex              // left indexing: Inputs = X, Y, rl, ru, cl, cu
	KindTable                  // table(a, b)
	KindDiag                   // diag(v)
	KindSolve                  // solve(A, b)
	KindTernaryAgg             // sum(a*b) or sum(a*b*c) fused aggregate
	KindCast                   // as.scalar / as.matrix
	KindPrint                  // print(expr)
	KindStop                   // stop(expr)
)

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

var kindNames = [...]string{
	KindRead:       "read",
	KindWrite:      "write",
	KindTRead:      "tread",
	KindTWrite:     "twrite",
	KindLit:        "lit",
	KindDataGen:    "datagen",
	KindSeq:        "seq",
	KindUnary:      "unary",
	KindBinary:     "binary",
	KindAggUnary:   "agg",
	KindMatMul:     "ba(+*)",
	KindReorg:      "reorg",
	KindAppend:     "append",
	KindIndex:      "rix",
	KindLeftIndex:  "lix",
	KindTable:      "table",
	KindDiag:       "diag",
	KindSolve:      "solve",
	KindTernaryAgg: "tagg",
	KindCast:       "cast",
	KindPrint:      "print",
	KindStop:       "stop",
}

// DataType distinguishes matrix and scalar HOPs.
type DataType uint8

// Data types.
const (
	Matrix DataType = iota
	Scalar
	String
)

// Hop is one node of a HOP DAG. Its one-byte fields come first, so that
// they share a word.
type Hop struct {
	// ID is unique within one compiled program.
	ID int64
	// Kind and Op identify the operator; Op carries the surface operator
	// for unary/binary/aggregate kinds (e.g. "+", "sum", "rowSums").
	Kind Kind
	// DataType of the output.
	DataType DataType
	// Known scalar constant (propagated; enables folding and branch
	// removal). Only meaningful for DataType Scalar.
	KnownVal bool
	// TransA marks a matrix multiplication whose left operand is consumed
	// transposed without materializing the transpose (the transpose-mm
	// rewrite of paper Table 4: t(X)%*%v avoids the large reorg).
	TransA bool
	// Pos is the hop's index in its generic block's Order, or in its
	// control block's Header: the dense index of every per-hop table lop,
	// cost and the runtime keep.
	Pos int32
	Op  string
	// Inputs are the operand HOPs in positional order; entries may be nil
	// for optional index bounds.
	Inputs []*Hop
	// Name for read/write/transient operators.
	Name string
	// Literal payloads.
	Value    float64
	StrValue string
	// Dimensions and non-zeros of the output (Unknown if not inferable).
	Rows, Cols, NNZ int64
	// OutMem is the worst-case in-memory size of the output.
	OutMem conf.Bytes
	// OpMem is the operation memory estimate: inputs + output +
	// intermediates, the quantity compared against the CP budget.
	OpMem conf.Bytes
	// mark is the number of the last WalkDAG that visited the hop.
	mark uint64
}

// DimsKnown reports whether both output dimensions are known.
func (h *Hop) DimsKnown() bool { return h.Rows != Unknown && h.Cols != Unknown }

// Sparsity returns the worst-case output sparsity (1.0 when nnz unknown).
func (h *Hop) Sparsity() float64 {
	if h.NNZ == Unknown || h.Rows <= 0 || h.Cols <= 0 {
		return 1.0
	}
	return float64(h.NNZ) / (float64(h.Rows) * float64(h.Cols))
}

// IsScalar reports whether the hop produces a scalar or string.
func (h *Hop) IsScalar() bool { return h.DataType != Matrix }

func (h *Hop) String() string {
	d := "?x?"
	if h.DimsKnown() {
		d = fmt.Sprintf("%dx%d", h.Rows, h.Cols)
	}
	label := h.Kind.String()
	if h.Op != "" {
		label += "(" + h.Op + ")"
	}
	if h.Name != "" {
		label += " " + h.Name
	}
	return fmt.Sprintf("%s [%s, out=%v, op=%v]", label, d, h.OutMem, h.OpMem)
}

// Program is a compiled HOP-level program: the hierarchy of blocks plus
// bookkeeping for the resource optimizer, and the compiler that built it.
type Program struct {
	Blocks []*Block
	// NumLeaf is the number of leaf generic blocks, i.e. the length of the
	// MR part of the resource vector R_P.
	NumLeaf int
	// comp built the program, and only it or a Fork of it recompiles the
	// program's blocks; nil on a program assembled by hand.
	comp *Compiler
}

// Compiler returns the compiler that built p, nil if none did. A run
// recompiles on a Fork of it (see rt.Interp.Run).
func (p *Program) Compiler() *Compiler { return p.comp }

// Block is one program block in the HOP-level hierarchy.
type Block struct {
	Kind dml.BlockKind
	// Index is the leaf index into the resource vector for generic blocks,
	// -1 for control blocks.
	Index int
	// Roots of the generic block's DAG (twrite/write/print roots) in
	// statement order.
	Roots []*Hop
	// Order lists a generic block's hops in WalkDAG(Roots) order, inputs
	// before consumers; Users[i] lists the consumers of Order[i], once per
	// input slot that reads it. Both are derived from Roots when the block
	// is built and never change afterwards (see linearize).
	Order []*Hop
	Users [][]*Hop
	// Pred is the predicate DAG root for if/while blocks.
	Pred *Hop
	// For header.
	Var      string
	From, To *Hop
	// Header lists a control block's Pred, From and To hops in
	// WalkDAG([Pred, From, To]) order, as Order does a generic block's,
	// so the runtime evaluates a header into a table indexed by Pos.
	// Derived from those roots when the block is built.
	Header []*Hop
	// Children.
	Then, Else, Body []*Block
	// Parent is the control block whose Then, Else or Body holds the
	// block, nil at the top level and on a template. Set when the program
	// is indexed; a recompiled block keeps its compiled block's.
	Parent *Block
	// Reads lists, sorted and once each, the variables a generic block's
	// statements (Src.Stmts) read: every identifier, and the target of a
	// left-indexed assignment. Rebuilding the block looks up no other name,
	// so the rebuild's table holds these alone. Derived from the statements
	// when the block is built (see stmtReads).
	Reads []string
	// Src links back to the originating statement block, enabling whole
	// subtrees to be recompiled against runtime metadata (re-optimization
	// scope rebuilding, paper §4.2).
	Src *dml.StatementBlock
	// Recompile marks blocks whose DAG contains unknown dimensions and is
	// therefore subject to dynamic recompilation.
	Recompile bool
	// KnownIters is the inferred loop trip count (Unknown if not static).
	KnownIters int64
	// Parallel marks parfor blocks: iterations are independent and may
	// run concurrently (task-parallel extension).
	Parallel bool
	// FirstLine/LastLine delimit the source range.
	FirstLine, LastLine int
	// hint is the hop count the build expects of a generic block: the IDs
	// its build drew, or the hops of the block a re-size copied. It sizes
	// the tables linearize and the transpose-mm rewrite fill.
	hint int
	// buf, on a block RecompileGeneric returned, holds the block and the
	// storage of its hops and tables, which the next recompile of the same
	// compiled block overwrites (see RecompileGeneric).
	buf *blockBuf
}

// ParforWorkers is the worker count of a parfor loop of iters iterations
// on cores CP cores: one worker per core, at most one per iteration, and
// at least one. Each worker is single threaded.
func ParforWorkers(cores int, iters int64) int {
	return int(max(1, min(int64(cores), iters)))
}

// OpCores is the CP core count an operation of b runs at, given the
// program's cores: 1 inside a parfor body, whose workers are single
// threaded, and cores elsewhere.
func (b *Block) OpCores(cores int) int {
	if cores > 1 {
		for p := b.Parent; p != nil; p = p.Parent {
			if p.Parallel {
				return 1
			}
		}
	}
	return cores
}

// WalkBlocks visits all blocks in pre-order.
func WalkBlocks(blocks []*Block, fn func(*Block)) {
	for _, b := range blocks {
		fn(b)
		WalkBlocks(b.Then, fn)
		WalkBlocks(b.Else, fn)
		WalkBlocks(b.Body, fn)
	}
}

// LeafBlocks returns the generic blocks of the program in execution order,
// indexed consistently with Block.Index.
func (p *Program) LeafBlocks() []*Block {
	out := make([]*Block, 0, p.NumLeaf)
	WalkBlocks(p.Blocks, func(b *Block) {
		if b.Kind == dml.GenericBlock {
			out = append(out, b)
		}
	})
	return out
}

// walks numbers the DAG walks, so that a hop's mark tells whether the
// current walk has visited it.
var walks atomic.Uint64

// WalkDAG visits every hop reachable from the given roots exactly once in
// post-order (inputs before consumers). It marks the hops it visits
// instead of keeping a set, so no two goroutines may walk hops they share
// at the same time: every walk is over a DAG its caller's goroutine built,
// inside the compiler's own build or on a program it has just returned.
func WalkDAG(roots []*Hop, fn func(*Hop)) {
	walk := walks.Add(1)
	for _, r := range roots {
		visit(r, walk, fn)
	}
}

func visit(h *Hop, walk uint64, fn func(*Hop)) {
	if h == nil || h.mark == walk {
		return
	}
	h.mark = walk
	for _, in := range h.Inputs {
		visit(in, walk, fn)
	}
	fn(h)
}

// linearize records the block's Order, each hop's Pos and the Users table,
// and marks the block for dynamic recompilation if a matrix hop's
// dimensions are unknown. It runs once the block's topology is final,
// after the dead-write and transpose-mm rewrites; later changes
// (UpdateFromRuntime) rewrite sizes only, so the tables stay valid and are
// safe to share between goroutines. It overwrites the Order and Users the
// block holds, and a recompiled block's buffer, when they are large enough.
func (b *Block) linearize() {
	b.Order = walkOrder(reuse(b.Order, 0, b.hint), b.Roots)
	b.Recompile = slices.ContainsFunc(b.Order, func(h *Hop) bool { return h.DataType == Matrix && !h.DimsKnown() })
	// Users[i] is a window of one backing array, sized by a first count.
	// A recompiled block's tables have room for as many hops as its
	// Order, so that a later recompile into them that folds less fits.
	var counts []int
	var users []*Hop
	n, c := len(b.Order), len(b.Order)
	if b.buf != nil {
		counts, users, c = b.buf.counts, b.buf.users, cap(b.Order)
	}
	counts = reuse(counts, n, c)
	total := 0
	for _, h := range b.Order {
		for _, in := range h.Inputs {
			if in != nil {
				counts[in.Pos]++
				total++
			}
		}
	}
	users = reuse(users, total, total)
	if b.buf != nil {
		b.buf.counts, b.buf.users = counts, users
	}
	b.Users = reuse(b.Users, n, c)
	for i, k := range counts {
		b.Users[i], users = users[:0:k], users[k:]
	}
	for _, h := range b.Order {
		for _, in := range h.Inputs {
			if in != nil {
				b.Users[in.Pos] = append(b.Users[in.Pos], h)
			}
		}
	}
}

// walkOrder appends the hops reachable from roots to order in WalkDAG
// order and sets each one's Pos to its index there.
func walkOrder(order, roots []*Hop) []*Hop {
	WalkDAG(roots, func(h *Hop) {
		h.Pos = int32(len(order))
		order = append(order, h)
	})
	return order
}

// reuse returns n zero elements: s's first n when its capacity is at least
// c, else a new slice of capacity c.
func reuse[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	s = s[:n]
	clear(s)
	return s
}
