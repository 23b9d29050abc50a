package hop

import "elasticml/internal/dml"

// RebuildOnly makes every RecompileGeneric rebuild its block from the
// statements, as it did before blocks were re-sized, until restore.
func RebuildOnly() (restore func()) {
	rebuildOnly = true
	return func() { rebuildOnly = false }
}

// OnRecompile hands fn every block RecompileGeneric returns, with the
// block and variables it was given and whether the re-size built it, until
// restore.
func OnRecompile(fn func(c *Compiler, b *Block, vars Vars, nb *Block, resized bool)) (restore func()) {
	recompiled = fn
	return func() { recompiled = nil }
}

// Rebuild is the rebuild RecompileGeneric falls back to, from b's
// statements. It leaves c as it was.
func (c *Compiler) Rebuild(b *Block, vars Vars) (*Block, error) {
	f := *c
	f.statementsOnly = true
	return f.rebuild(b, vars)
}

// Templates returns every template the script c compiled holds.
func Templates(c *Compiler) []*Block {
	s := c.script
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Block
	for _, bt := range s.tmpls {
		for _, k := range bt.kinds {
			if k.b != nil {
				out = append(out, k.b)
			}
		}
	}
	return out
}

// WrittenMeta is the metadata of every variable p's generic blocks write.
var WrittenMeta = writtenMeta

// OnJoin hands fn each join's (an if's, or a loop's trial or kept body)
// compiler and statement block, the table it started from and the table
// it left, until restore.
func OnJoin(fn func(c *Compiler, sb *dml.StatementBlock, entry, out SymTab)) (restore func()) {
	joined = fn
	return func() { joined = nil }
}

// JoinReference is the whole-table merge a join must equal: on a fork of
// c, it builds each arm of sb — an if's branches, or a loop's body (its
// for variable bound as an unknown scalar) and the empty arm of zero
// iterations — on its own copy of entry, and merges the two copies with
// mergeMeta.
func JoinReference(c *Compiler, sb *dml.StatementBlock, entry SymTab) (SymTab, error) {
	first, second := sb.Then, sb.Else
	if sb.Kind != dml.IfBlockKind {
		first, second = sb.Body, nil
	}
	a, b := entry.Clone(), entry.Clone()
	if sb.Var != "" {
		a[sb.Var] = VarMeta{}
	}
	f := c.Fork(c.FS)
	if err := f.startBuild(); err != nil {
		return nil, err
	}
	defer f.endBuild()
	if _, err := f.buildBlocks(nil, first, a); err != nil {
		return nil, err
	}
	if _, err := f.buildBlocks(nil, second, b); err != nil {
		return nil, err
	}
	mergeMeta(b, a)
	return b, nil
}

// mergeMeta is the merge of whole tables that joins replaced: it merges
// the then-branch's symbol table into the else-branch's table els, so that
// agreeing facts survive, disagreeing facts are weakened to unknown, and a
// variable only one branch defines is kept fully weakened.
func mergeMeta(els, then SymTab) {
	for k, vb := range els {
		if _, ok := then[k]; !ok {
			els[k] = weakened(vb, vb.unknownLike())
		}
	}
	for k, va := range then {
		vb, ok := els[k]
		switch {
		case ok && va == vb:
		case ok:
			els[k] = weakened(va, vb)
		default:
			els[k] = weakened(va, va.unknownLike())
		}
	}
}
