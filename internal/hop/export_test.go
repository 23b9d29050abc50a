package hop

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
// statements.
func (c *Compiler) Rebuild(b *Block, vars Vars) (*Block, error) {
	noSrc := *b
	noSrc.Src = nil
	return c.rebuild(&noSrc, vars)
}

// StatementsOnly makes every generic block build from its statements, as
// it did before templates, until restore.
func StatementsOnly() (restore func()) {
	statementsOnly = true
	return func() { statementsOnly = false }
}
