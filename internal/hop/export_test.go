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
