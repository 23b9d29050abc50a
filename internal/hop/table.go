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

// Table holds, per source, its parse (a Parsed) and the script over it,
// so that the compiles of a source parse it once and build each block's
// DAG once. It holds both weakly: once no compiler of the script is
// reachable (a compiler keeps the script it compiled, and a program's owner
// keeps the compiler), the collector frees the script and its templates,
// and once nothing keeps the parse either (a script keeps its parse, and
// a caller may keep Script.Parsed), the table forgets the source. A nil
// Table keeps nothing: every Parse parses afresh. Safe for concurrent use.
type Table struct {
	// Trace, when non-nil, counts compile.parses, and the template
	// builds, re-sizes and fallbacks of every compile of the table's
	// scripts (see generic).
	Trace *obs.Tracer

	mu     sync.Mutex
	parses map[string]weak.Pointer[Parsed]
}

// Parse returns the script of source: the live script over the table's
// parse of source, or else a new one with no templates. It parses source
// unless the table holds a live parse of it, once for concurrent calls.
func (t *Table) Parse(source string) (*Script, error) {
	p, trace := (*Parsed)(nil), (*obs.Tracer)(nil)
	if t != nil {
		t.mu.Lock()
		if p, trace = t.parses[source].Value(), t.Trace; p == nil {
			p = new(Parsed)
			if t.parses == nil {
				t.parses = make(map[string]weak.Pointer[Parsed])
			}
			t.parses[source] = weak.Make(p)
			runtime.AddCleanup(p, t.forget, source)
		}
		t.mu.Unlock()
	} else {
		p = new(Parsed)
	}
	p.once.Do(func() {
		p.perr = errors.New("hop: the parse of the source panicked")
		prog, err := dml.Parse(source)
		if p.perr = err; err == nil {
			trace.Metrics().Add("compile.parses", 1)
			p.build(prog)
		}
	})
	if p.perr != nil {
		return nil, p.perr
	}
	return p.script(trace), nil
}

// forget drops source once its parse is freed, unless a new one took its
// place.
func (t *Table) forget(source string) {
	t.mu.Lock()
	if t.parses[source].Value() == nil {
		delete(t.parses, source)
	}
	t.mu.Unlock()
}

// Parsed is one source's parse: its statement blocks after function
// inlining, and the write set of each control block (see writeSet), which
// an if's or a loop's merge saves, restores and merges. Safe for
// concurrent use.
type Parsed struct {
	once   sync.Once // Table.Parse's parse of the source
	perr   error     // the source's syntax error
	blocks []*dml.StatementBlock
	err    error // inlining's, which every compile of the script reports
	writes map[*dml.StatementBlock][]string
	// facts holds for each loop the names whose facts decide how it
	// builds: its write set, then the names it reads.
	facts map[*dml.StatementBlock][]string

	curMu sync.Mutex
	cur   weak.Pointer[Script] // the script over the parse, while one lives
}

// build fills p from the program prog parses to.
func (p *Parsed) build(prog *dml.Program) {
	stmts, err := dml.InlineFunctions(prog)
	p.err, p.writes, p.facts = err, make(map[*dml.StatementBlock][]string), make(map[*dml.StatementBlock][]string)
	if err == nil {
		p.blocks = dml.BuildBlocks(stmts)
		appendWrites(nil, p.blocks, p.writes)
	}
	for sb, ws := range p.writes {
		if sb.Kind != dml.IfBlockKind {
			var reads []string
			dml.Walk([]*dml.StatementBlock{sb}, func(b *dml.StatementBlock) {
				reads = appendReads(appendReads(appendReads(append(reads, stmtReads(b.Stmts)...), b.Pred), b.From), b.To)
			})
			slices.Sort(reads)
			p.facts[sb] = append(ws[:len(ws):len(ws)], slices.Compact(reads)...)
		}
	}
}

// script returns the live script over p, or a new one with no templates.
func (p *Parsed) script(trace *obs.Tracer) *Script {
	p.curMu.Lock()
	defer p.curMu.Unlock()
	s := p.cur.Value()
	if s == nil {
		s = &Script{Parsed: p, trace: trace}
		p.cur = weak.Make(s)
	}
	return s
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

// Script is one parse and a template for each generic block under each
// combination of kinds its reads and $ parameters arrive with — the
// block's DAG built once with every variable it reads unknown, kind kept
// (a string keeps its value, which a read() or write path or a ppred
// operator bakes in). A numeric parameter is an unknown scalar read under
// its reserved name, and a read() a persistent read of unknown size. A
// build of the block re-sizes the template under the metadata at hand
// instead of building from the statements (see generic). Templates take
// their hop IDs from the script's own counter, so a program's IDs, like
// its DAGs, do not depend on which templates were built before it. Safe
// for concurrent use.
type Script struct {
	*Parsed
	trace *obs.Tracer // counts the template work (see Table.Trace)

	mu     sync.Mutex
	nextID int64
	tmpls  map[*dml.StatementBlock]*blockTemplates
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
