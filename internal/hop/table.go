package hop

import (
	"encoding/binary"
	"runtime"
	"sync"
	"weak"

	"elasticml/internal/dml"
	"elasticml/internal/obs"
)

// Table holds, per source, the parsed program with its functions inlined
// and the templates of its generic blocks (a Script), so that the compiles
// of a source parse it once and build each block's DAG once. It holds a script
// weakly: once no compiler of it is reachable (a compiler keeps the script
// it compiled, and a program's owner keeps the compiler), the collector
// frees the script and its templates, and the table forgets the source.
// A nil Table keeps nothing: every Parse parses afresh. Safe for
// concurrent use.
type Table struct {
	// Trace, when non-nil, counts compile.parses, and the template
	// builds, re-sizes and fallbacks of every compile of the table's
	// scripts (see generic).
	Trace *obs.Tracer

	mu      sync.Mutex
	scripts map[string]weak.Pointer[Script]
}

// Parse returns the script of source, parsing it unless a live script of
// it is in the table.
func (t *Table) Parse(source string) (*Script, error) {
	if t != nil {
		t.mu.Lock()
		s := t.scripts[source].Value()
		t.mu.Unlock()
		if s != nil {
			return s, nil
		}
	}
	prog, err := dml.Parse(source)
	if err != nil {
		return nil, err
	}
	if t == nil {
		return newScript(prog, source, nil), nil
	}
	t.Trace.Metrics().Add("compile.parses", 1)
	s := newScript(prog, source, t.Trace)
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.scripts[source].Value(); old != nil {
		return old, nil // parsed on another goroutine meanwhile
	}
	if t.scripts == nil {
		t.scripts = make(map[string]weak.Pointer[Script])
	}
	t.scripts[source] = weak.Make(s)
	runtime.AddCleanup(s, t.forget, source)
	return s, nil
}

// forget drops source once its script is freed, unless a new one took
// its place.
func (t *Table) forget(source string) {
	t.mu.Lock()
	if t.scripts[source].Value() == nil {
		delete(t.scripts, source)
	}
	t.mu.Unlock()
}

// Script is one parsed source: its statement blocks after function
// inlining, and a template for each generic block under each combination
// of kinds its reads arrive with — the block's DAG built once with every
// variable it reads unknown, kind kept (a string keeps its value, which a
// write path or a ppred operator bakes in). A build of the block re-sizes
// the template under the metadata at hand instead of building from the
// statements (see generic). Templates take their hop IDs from the
// script's own counter, so a program's IDs, like its DAGs, do not depend
// on which templates were built before it. Safe for concurrent use.
type Script struct {
	source string
	blocks []*dml.StatementBlock
	err    error       // inlining's, which every compile of the script reports
	trace  *obs.Tracer // counts the template work (see Table.Trace)

	mu     sync.Mutex
	nextID int64
	tmpls  map[*dml.StatementBlock]*blockTemplates
}

// blockTemplates are one generic block's read set and its templates.
type blockTemplates struct {
	reads []string
	kinds []kindsTemplate
}

// kindsTemplate is a block's DAG under one combination of read kinds (see
// appendKinds), or nil where the block does not build without its
// statements' $ parameters or files, or does not build at all.
type kindsTemplate struct {
	kinds string
	b     *Block
}

func newScript(prog *dml.Program, source string, trace *obs.Tracer) *Script {
	stmts, err := dml.InlineFunctions(prog)
	s := &Script{source: source, err: err, trace: trace}
	if err == nil {
		s.blocks = dml.BuildBlocks(stmts)
	}
	return s
}

// template returns sb's template for the kinds meta gives sb's reads,
// building it on first use.
func (s *Script) template(sb *dml.StatementBlock, meta SymTab) *Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	bt := s.tmpls[sb]
	if bt == nil {
		if s.tmpls == nil {
			s.tmpls = make(map[*dml.StatementBlock]*blockTemplates)
		}
		bt = &blockTemplates{reads: stmtReads(sb.Stmts)}
		s.tmpls[sb] = bt
	}
	var buf [64]byte
	kinds := appendKinds(buf[:0], bt.reads, meta)
	for _, t := range bt.kinds {
		if t.kinds == string(kinds) {
			return t.b
		}
	}
	s.trace.Metrics().Add("compile.template_builds", 1)
	unknown := make(SymTab, len(bt.reads))
	for _, name := range bt.reads {
		if v, ok := meta[name]; ok {
			if !v.IsStr {
				v = v.unknownLike()
			}
			unknown[name] = v
		}
	}
	// A compiler with no file system and no parameters fails on a read()
	// or a $ parameter, whose values a template must not bake in.
	tc := &Compiler{nextID: s.nextID}
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

// appendKinds appends to dst what a template keeps of each of reads in
// meta: absent, matrix, scalar, or a string and its value.
func appendKinds(dst []byte, reads []string, meta SymTab) []byte {
	for _, name := range reads {
		v, ok := meta[name]
		switch {
		case !ok:
			dst = append(dst, 0)
		case v.IsMatrix:
			dst = append(dst, 1)
		case v.IsStr:
			dst = append(dst, 2)
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			dst = append(dst, 3)
		}
	}
	return dst
}

// generic builds the generic block sb against meta and publishes its
// transient writes' metadata there, as buildGeneric does: it re-sizes
// sb's template, and builds from the statements only where sb has no
// template for the kinds of its reads or the re-size refuses.
func (c *Compiler) generic(sb *dml.StatementBlock, meta SymTab) (*Block, error) {
	if !c.statementsOnly {
		if c.script == nil {
			c.script = &Script{trace: c.Trace}
		}
		m := c.script.trace.Metrics()
		if t := c.script.template(sb, meta); t != nil {
			if b, ok := c.resized(t, meta, nil); ok {
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
