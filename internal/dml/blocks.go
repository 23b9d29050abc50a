package dml

// BlockKind classifies statement blocks in the program hierarchy.
type BlockKind int

// Statement block kinds; the hierarchy mirrors the control structure of
// the script (paper Appendix B, Figure 16(a)).
const (
	GenericBlock BlockKind = iota
	IfBlockKind
	WhileBlockKind
	ForBlockKind
)

func (k BlockKind) String() string {
	switch k {
	case GenericBlock:
		return "generic"
	case IfBlockKind:
		return "if"
	case WhileBlockKind:
		return "while"
	case ForBlockKind:
		return "for"
	}
	return "?"
}

// StatementBlock is one node of the program-block hierarchy. Generic blocks
// hold straight-line statements (and compile to one HOP DAG); control
// blocks hold a predicate plus nested child blocks.
type StatementBlock struct {
	Kind  BlockKind
	Stmts []Stmt // Generic only
	Pred  Expr   // If/While predicate
	// For header; Parallel marks parfor blocks.
	Var      string
	From, To Expr
	Parallel bool
	// Children.
	Then, Else []*StatementBlock // If
	Body       []*StatementBlock // While/For
	// FirstLine/LastLine delimit the source range for diagnostics.
	FirstLine, LastLine int
}

// BuildBlocks groups a statement list into the hierarchy of statement
// blocks: runs of straight-line statements become one generic block, and
// each control statement becomes its own block with nested children.
func BuildBlocks(stmts []Stmt) []*StatementBlock {
	var out []*StatementBlock
	var run []Stmt
	flush := func() {
		if len(run) == 0 {
			return
		}
		out = append(out, &StatementBlock{Kind: GenericBlock, Stmts: run,
			FirstLine: run[0].Line(), LastLine: run[len(run)-1].Line()})
		run = nil
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case *Assign:
			run = append(run, s)
			// Artificial recompilation cut after data-dependent operations
			// (paper Appendix B: "recompilation hooks are given by the
			// natural program structure or by artificially created cuts"):
			// downstream statements land in a fresh block that dynamic
			// recompilation can rebuild once the sizes are known.
			if exprContainsCall(st.Expr, "table") {
				flush()
			}
		case *ExprStmt:
			run = append(run, s)
		case *If:
			flush()
			out = append(out, &StatementBlock{Kind: IfBlockKind, Pred: st.Cond,
				Then: BuildBlocks(st.Then), Else: BuildBlocks(st.Else),
				FirstLine: st.SrcLine, LastLine: st.SrcLine})
		case *While:
			flush()
			out = append(out, &StatementBlock{Kind: WhileBlockKind, Pred: st.Cond,
				Body: BuildBlocks(st.Body), FirstLine: st.SrcLine, LastLine: st.SrcLine})
		case *For:
			flush()
			out = append(out, &StatementBlock{Kind: ForBlockKind, Var: st.Var,
				From: st.From, To: st.To, Body: BuildBlocks(st.Body), Parallel: st.Parallel,
				FirstLine: st.SrcLine, LastLine: st.SrcLine})
		}
	}
	flush()
	return out
}

// Calls reports whether a statement or a header anywhere in the block
// hierarchy calls the named builtin.
func Calls(blocks []*StatementBlock, name string) bool {
	found := false
	Walk(blocks, func(b *StatementBlock) {
		for _, e := range []Expr{b.Pred, b.From, b.To} {
			found = found || exprContainsCall(e, name)
		}
		for _, st := range b.Stmts {
			switch st := st.(type) {
			case *Assign:
				found = found || exprContainsCall(st.Expr, name) ||
					st.LIndex != nil && exprContainsCall(st.LIndex, name)
			case *ExprStmt:
				found = found || exprContainsCall(st.Call, name)
			}
		}
	})
	return found
}

// exprContainsCall reports whether the expression tree contains a call to
// the named builtin.
func exprContainsCall(e Expr, name string) bool {
	switch e := e.(type) {
	case *Call:
		if e.Name == name {
			return true
		}
		for _, a := range e.Args {
			if exprContainsCall(a, name) {
				return true
			}
		}
		for _, v := range e.Named {
			if exprContainsCall(v, name) {
				return true
			}
		}
	case *BinOp:
		return exprContainsCall(e.Left, name) || exprContainsCall(e.Right, name)
	case *UnOp:
		return exprContainsCall(e.X, name)
	case *Index:
		if exprContainsCall(e.Target, name) {
			return true
		}
		for _, r := range []*IndexRange{e.Row, e.Col} {
			if r != nil && (exprContainsCall(r.Lo, name) || exprContainsCall(r.Hi, name)) {
				return true
			}
		}
	}
	return false
}

// CountBlocks returns the total number of statement blocks in the
// hierarchy (control blocks count themselves plus their children); this is
// the "#Blocks" program-size indicator of Table 1.
func CountBlocks(blocks []*StatementBlock) int {
	n := 0
	for _, b := range blocks {
		n++
		n += CountBlocks(b.Then)
		n += CountBlocks(b.Else)
		n += CountBlocks(b.Body)
	}
	return n
}

// Walk visits every block in the hierarchy in pre-order.
func Walk(blocks []*StatementBlock, fn func(*StatementBlock)) {
	for _, b := range blocks {
		fn(b)
		Walk(b.Then, fn)
		Walk(b.Else, fn)
		Walk(b.Body, fn)
	}
}
