package rt

import (
	"bytes"
	"errors"
	"fmt"

	"elasticml/internal/hop"
	"elasticml/internal/lop"
)

// LastPlan returns the plan the last execution of the compiled block cb
// ran, if the interpreter recompiled or selected cb again; the plan's
// HopBlock is the block it was selected for.
func (ip *Interp) LastPlan(cb *hop.Block) (*lop.Block, bool) {
	last, ok := ip.last[cb]
	return last.plan, ok && last.plan != nil
}

// CheckReadSets makes each recompile of a run check itself until restore:
// the block is recompiled again, on a fork of the run's compiler, against
// a table of its read set alone, and report gets the block, the run's
// recompile against every live variable (nil when it failed) and how the
// two differ (nil when they encode alike or fail alike).
func CheckReadSets(report func(b, nb *hop.Block, diff error)) (restore func()) {
	orig := recompile
	recompile = func(ip *Interp, b, prev *hop.Block) (*hop.Block, error) {
		fork := ip.Compiler.Fork(ip.FS)
		nb, err := orig(ip, b, prev)
		reads, readsErr := fork.RecompileGeneric(b, readSetMeta(ip, b), nil)
		var diff error
		switch {
		case fmt.Sprint(err) != fmt.Sprint(readsErr):
			diff = fmt.Errorf("all live variables give %v, the read set %v", err, readsErr)
		case err == nil && !bytes.Equal(blockKey(nb), blockKey(reads)):
			diff = errors.New("the recompile from the read set differs from the run's")
		}
		report(b, nb, diff)
		return nb, err
	}
	return func() { recompile = orig }
}

// readSetMeta is the metadata of the live variables b reads.
func readSetMeta(ip *Interp, b *hop.Block) hop.SymTab {
	meta := make(hop.SymTab, len(b.Reads))
	for _, name := range b.Reads {
		if v, ok := ip.Vars[name]; ok {
			meta[name] = v.meta()
		}
	}
	return meta
}

// blockKey encodes one block as the optimizer sees it.
func blockKey(b *hop.Block) []byte {
	return hop.AppendKey(nil, &hop.Program{Blocks: []*hop.Block{b}, NumLeaf: 1})
}
