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

// Rebuild is the rebuild RecompileGeneric falls back to.
func (c *Compiler) Rebuild(b *Block, vars Vars) (*Block, error) { return c.rebuild(b, vars) }
