package lop

import (
	"fmt"
	"strings"

	"elasticml/internal/dml"
	"elasticml/internal/hop"
)

// Explain renders a runtime plan as an indented textual tree, in the
// spirit of SystemML's EXPLAIN output: the program-block hierarchy with
// per-block instruction lists, execution types, physical operators,
// broadcasts, and memory estimates. It is the primary debugging aid for
// understanding why a configuration produced a particular plan.
func Explain(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "PROGRAM (resources %s", p.Resources.String())
	if c := p.Resources.Cores(); c > 1 {
		fmt.Fprintf(&sb, ", %d CP cores", c)
	}
	sb.WriteString(")\n")
	explainBlocks(&sb, p, p.HopProgram.Blocks, 1)
	return sb.String()
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("--")
	}
}

func explainBlocks(sb *strings.Builder, p *Plan, blocks []*hop.Block, depth int) {
	for _, hb := range blocks {
		explainBlock(sb, p, hb, depth)
	}
}

func explainBlock(sb *strings.Builder, p *Plan, hb *hop.Block, depth int) {
	indent(sb, depth)
	switch hb.Kind {
	case dml.GenericBlock:
		fmt.Fprintf(sb, "GENERIC [block %d", hb.Index)
		if hb.Recompile {
			sb.WriteString(", recompile")
		}
		sb.WriteString("]\n")
		for _, in := range p.Blocks[hb.Index].Instrs {
			explainInstr(sb, in, depth+1)
		}
	case dml.IfBlockKind:
		fmt.Fprintf(sb, "IF (%s)\n", predString(hb))
		explainBlocks(sb, p, hb.Then, depth+1)
		if len(hb.Else) > 0 {
			indent(sb, depth)
			sb.WriteString("ELSE\n")
			explainBlocks(sb, p, hb.Else, depth+1)
		}
	case dml.WhileBlockKind:
		fmt.Fprintf(sb, "WHILE (%s)\n", predString(hb))
		explainBlocks(sb, p, hb.Body, depth+1)
	case dml.ForBlockKind:
		iters := "?"
		if hb.KnownIters != hop.Unknown {
			iters = fmt.Sprintf("%d", hb.KnownIters)
		}
		fmt.Fprintf(sb, "FOR %s [%s iterations]\n", hb.Var, iters)
		explainBlocks(sb, p, hb.Body, depth+1)
	}
}

func predString(hb *hop.Block) string {
	if hb.Src != nil {
		return hb.Src.Pred.String()
	}
	return "?"
}

func explainInstr(sb *strings.Builder, in Instr, depth int) {
	indent(sb, depth)
	if in.Kind == InstrCP {
		fmt.Fprintf(sb, "CP %s\n", hopLabel(in.Hop))
		return
	}
	fmt.Fprintf(sb, "MR %s", in.Job.Name())
	if len(in.Job.ScanInputs) > 0 {
		var scans []string
		for _, si := range in.Job.ScanInputs {
			scans = append(scans, hopRef(si))
		}
		fmt.Fprintf(sb, " scan=[%s]", strings.Join(scans, ","))
	}
	sb.WriteString("\n")
	for _, op := range in.Job.Ops {
		indent(sb, depth+1)
		fmt.Fprintf(sb, "%s %s", op.Phys, hopLabel(op.Hop))
		if len(op.Broadcast) > 0 {
			var bc []string
			for _, x := range op.Broadcast {
				bc = append(bc, hopRef(x))
			}
			fmt.Fprintf(sb, " broadcast=[%s]", strings.Join(bc, ","))
		}
		if op.Shuffles {
			sb.WriteString(" shuffle")
		}
		sb.WriteString("\n")
	}
}

// hopLabel renders an instruction-level hop with dims and memory estimate.
func hopLabel(h *hop.Hop) string {
	label := h.Kind.String()
	if h.Op != "" && h.Op != label {
		label += "(" + h.Op + ")"
	}
	if h.TransA {
		label += "'"
	}
	if h.Name != "" {
		label += " " + h.Name
	}
	if h.DataType == hop.Matrix {
		d := "?x?"
		if h.DimsKnown() {
			d = fmt.Sprintf("%dx%d", h.Rows, h.Cols)
		}
		mem := "mem=?"
		if !hop.InfiniteMem(h.OpMem) {
			mem = "mem=" + h.OpMem.String()
		}
		label += fmt.Sprintf(" [%s, %s]", d, mem)
	}
	return label
}

// hopRef renders a short reference to an operand.
func hopRef(h *hop.Hop) string {
	switch h.Kind {
	case hop.KindTRead:
		return h.Name
	case hop.KindRead:
		return h.Name
	default:
		return fmt.Sprintf("%s#%d", h.Kind, h.ID)
	}
}
