package hop

import (
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"sync"
	"weak"

	"elasticml/internal/dml"
	"elasticml/internal/obs"
)

// Table holds, per source, its script, so that the compiles of a source
// parse it once and build each block's DAG once. It holds the script
// weakly: once nothing keeps it (a compiler keeps the script it compiled,
// a program's owner keeps the compiler, and a caller may keep the script),
// the collector frees the script and its templates and the table forgets
// the source. A nil Table keeps nothing: every Parse parses afresh. Safe
// for concurrent use.
type Table struct {
	// Trace, when non-nil, counts compile.parses, and the template
	// builds, re-sizes and fallbacks of every compile of the table's
	// scripts (see generic).
	Trace *obs.Tracer

	mu      sync.Mutex
	scripts map[string]weak.Pointer[Script]
}

// Parse returns the script of source: the live one the table holds, or
// else a new one with no templates. It parses source unless the table
// holds a live script of it, once for concurrent calls.
func (t *Table) Parse(source string) (*Script, error) {
	var s *Script
	if t != nil {
		t.mu.Lock()
		if s = t.scripts[source].Value(); s == nil {
			s = &Script{trace: t.Trace}
			if t.scripts == nil {
				t.scripts = make(map[string]weak.Pointer[Script])
			}
			t.scripts[source] = weak.Make(s)
			runtime.AddCleanup(s, t.forget, source)
		}
		t.mu.Unlock()
	} else {
		s = new(Script)
	}
	s.once.Do(func() {
		s.perr = errors.New("hop: the parse of the source panicked")
		prog, err := dml.Parse(source)
		if s.perr = err; err == nil {
			s.trace.Metrics().Add("compile.parses", 1)
			s.build(prog)
		}
	})
	if s.perr != nil {
		return nil, s.perr
	}
	return s, nil
}

// forget drops source once its script is freed, unless a new one took its
// place.
func (t *Table) forget(source string) {
	t.mu.Lock()
	if t.scripts[source].Value() == nil {
		delete(t.scripts, source)
	}
	t.mu.Unlock()
}

// Script is one source's parse and the templates built over it. The
// parse is the source's statement blocks after function inlining, and the
// write set of each control block (see writeSet), which an if's or a
// loop's merge saves, restores and merges.
//
// A template is a generic block's DAG under one combination of kinds its
// reads and $ parameters arrive with — built once with every variable it
// reads unknown, kind kept (a string keeps its value, which a read() or
// write path or a ppred operator bakes in). A numeric parameter is an
// unknown scalar read under its reserved name, and a read() a persistent
// read of unknown size. A build of the block re-sizes the template under
// the metadata at hand instead of building from the statements (see
// generic). Templates take their hop IDs from the script's own counter,
// so a program's IDs, like its DAGs, do not depend on which templates were
// built before it. Safe for concurrent use.
type Script struct {
	once   sync.Once // Table.Parse's parse of the source
	perr   error     // the source's syntax error
	blocks []*dml.StatementBlock
	err    error // inlining's, which every compile of the script reports
	writes map[*dml.StatementBlock][]string
	// facts holds for each loop the names whose facts decide how it
	// builds: its write set, then the names it reads.
	facts map[*dml.StatementBlock][]string
	trace *obs.Tracer // counts the template work (see Table.Trace)

	mu     sync.Mutex
	nextID int64
	tmpls  map[*dml.StatementBlock]*blockTemplates
}

// build fills s's parse from the program prog parses to.
func (s *Script) build(prog *dml.Program) {
	stmts, err := dml.InlineFunctions(prog)
	s.err, s.writes, s.facts = err, make(map[*dml.StatementBlock][]string), make(map[*dml.StatementBlock][]string)
	if err == nil {
		s.blocks = dml.BuildBlocks(stmts)
		appendWrites(nil, s.blocks, s.writes)
	}
	for sb, ws := range s.writes {
		if sb.Kind != dml.IfBlockKind {
			var reads []string
			dml.Walk([]*dml.StatementBlock{sb}, func(b *dml.StatementBlock) {
				reads = appendReads(appendReads(appendReads(append(reads, stmtReads(b.Stmts)...), b.Pred), b.From), b.To)
			})
			slices.Sort(reads)
			s.facts[sb] = append(ws[:len(ws):len(ws)], slices.Compact(reads)...)
		}
	}
}

// appendWrites appends to names every name building bs may assign in a
// symbol table: each assignment's target, a left-indexed one included,
// and each nested for loop's variable. It records each control block's
// write set in sets.
func appendWrites(names []string, bs []*dml.StatementBlock, sets map[*dml.StatementBlock][]string) []string {
	for _, sb := range bs {
		if sb.Kind != dml.GenericBlock {
			names = append(names, writeSet(sb, sets)...)
			continue
		}
		for _, st := range sb.Stmts {
			if a, ok := st.(*dml.Assign); ok {
				names = append(names, a.Target)
			}
		}
	}
	return names
}

// writeSet returns, sorted and once each, the names building the control
// block sb may assign (see appendWrites), a for loop's own variable
// included.
func writeSet(sb *dml.StatementBlock, sets map[*dml.StatementBlock][]string) []string {
	var ws []string
	if sb.Var != "" {
		ws = append(ws, sb.Var)
	}
	for _, l := range [][]*dml.StatementBlock{sb.Then, sb.Else, sb.Body} {
		ws = appendWrites(ws, l, sets)
	}
	slices.Sort(ws)
	ws = slices.Compact(ws)
	sets[sb] = ws
	return ws
}

// blockTemplates are one generic block's read set, the reserved names of
// the $ parameters it reads (see paramName), and its templates.
type blockTemplates struct {
	reads, params []string
	kinds         []kindsTemplate
}

// kindsTemplate is a block's DAG under one combination of the kinds of its
// reads and parameters (see appendKind), or nil where the block does not
// build with every variable it reads unknown: a parameter is undefined, or
// the block does not build at all.
type kindsTemplate struct {
	kinds string
	b     *Block
}

// template returns sb's template for the kinds meta gives sb's reads and
// params gives its $ parameters, building it on first use.
func (s *Script) template(sb *dml.StatementBlock, meta SymTab, params map[string]interface{}) *Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	bt := s.tmpls[sb]
	if bt == nil {
		if s.tmpls == nil {
			s.tmpls = make(map[*dml.StatementBlock]*blockTemplates)
		}
		bt = &blockTemplates{reads: stmtReads(sb.Stmts), params: stmtParams(sb.Stmts)}
		s.tmpls[sb] = bt
	}
	var buf [64]byte
	kinds := buf[:0]
	for _, name := range bt.reads {
		v, ok := meta[name]
		kinds = appendKind(kinds, v, ok)
	}
	for _, name := range bt.params {
		v, err := paramMeta(params, name[1:])
		kinds = appendKind(kinds, v, err == nil)
	}
	for _, t := range bt.kinds {
		if t.kinds == string(kinds) {
			return t.b
		}
	}
	s.trace.Metrics().Add("compile.template_builds", 1)
	unknown := make(SymTab, len(bt.reads)+len(bt.params))
	keep := func(name string, v VarMeta) {
		if !v.IsStr {
			v = v.unknownLike()
		}
		unknown[name] = v
	}
	for _, name := range bt.reads {
		if v, ok := meta[name]; ok {
			keep(name, v)
		}
	}
	for _, name := range bt.params {
		if v, err := paramMeta(params, name[1:]); err == nil {
			keep(name, v)
		}
	}
	tc := &Compiler{nextID: s.nextID, template: true}
	b, err := tc.buildGeneric(sb.Stmts, unknown, sb.FirstLine, sb.LastLine)
	s.nextID = tc.nextID
	if err == nil {
		b.Src, b.Reads = sb, bt.reads
		b.linearize()
	} else {
		b = nil
	}
	bt.kinds = append(bt.kinds, kindsTemplate{kinds: string(kinds), b: b})
	return b
}

// appendKind appends to dst what a template keeps of a read or parameter
// v, which ok reports defined: absent, matrix, scalar, or a string and its
// value.
func appendKind(dst []byte, v VarMeta, ok bool) []byte {
	switch {
	case !ok:
		return append(dst, 0)
	case v.IsMatrix:
		return append(dst, 1)
	case v.IsStr:
		dst = append(dst, 2)
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		return append(dst, v.Str...)
	}
	return append(dst, 3)
}

// generic builds the generic block sb against meta and publishes its
// transient writes' metadata there, as buildGeneric does: it re-sizes
// sb's template into the scratch block, and builds from the statements
// only where sb has no template for the kinds of its reads and parameters
// or the re-size refuses. Outside a loop's trial it returns a compact copy
// of the scratch block; inside one, the scratch block itself, which the
// next generic block overwrites.
func (c *Compiler) generic(sb *dml.StatementBlock, meta SymTab) (*Block, error) {
	if !c.statementsOnly {
		m := c.script.trace.Metrics()
		if t := c.script.template(sb, meta, c.Params); t != nil {
			if b, ok := c.resized(t, meta, &c.scratch.buf); ok {
				if c.scratch.trials == 0 {
					b = b.compact()
				}
				m.Add("compile.template_resizes", 1)
				for _, r := range b.Roots {
					if r.Kind == KindTWrite {
						meta[r.Name] = metaOf(r)
					}
				}
				return b, nil
			}
		}
		m.Add("compile.template_fallbacks", 1)
	}
	return c.buildGeneric(sb.Stmts, meta, sb.FirstLine, sb.LastLine)
}
