package hop

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"elasticml/internal/dml"
	"elasticml/internal/scripts"
)

// keyExcluded are the fields AppendKey leaves out, each with the reason
// leaving it out cannot change what lop, cost or opt compute.
var keyExcluded = map[string]string{
	"Hop.ID":       "identity only: names CSE entries, interpreter value caches and cost's job-output keys, and any unique numbering selects and costs alike",
	"Hop.Pos":      "derived when the block is built: the hop's index in Block.Order or Block.Header",
	"Hop.mark":     "walk bookkeeping: the number of the last WalkDAG that visited the hop",
	"Block.Order":  "derived from Roots when the block is built: the hops in WalkDAG order",
	"Block.Users":  "derived from Roots when the block is built: each hop's consumers",
	"Block.Header": "derived from Pred, From and To when the block is built: the header hops in WalkDAG order",
	"Block.Reads":  "derived from Src.Stmts when the block is built: the variables recompilation looks up",
	"Block.Src":    "not read by non-test code in lop/cost/opt: source linkage for RebuildScope",
	"Block.hint":   "a capacity hint for the tables the build fills, never read once the block is linearized",
	"Block.buf":    "storage only: the block and arrays a recompile returned, which the next recompile of the same compiled block overwrites; never read",
	"Block.Parent": "derived when the program is indexed: the block's position in the tree, which the encoding of the tree carries",
	"Program.comp": "the compiler that built the program, read only to recompile it: a program and its recompiles select and cost alike whichever compiler built them",
}

// keyTargets returns every struct of type typ in p, addressable: the
// program itself, its blocks in pre-order, or its hops in walk order.
func keyTargets(p *Program, typ reflect.Type) []reflect.Value {
	var out []reflect.Value
	switch typ {
	case reflect.TypeOf(Program{}):
		out = append(out, reflect.ValueOf(p).Elem())
	case reflect.TypeOf(Block{}):
		WalkBlocks(p.Blocks, func(b *Block) { out = append(out, reflect.ValueOf(b).Elem()) })
	case reflect.TypeOf(Hop{}):
		WalkBlocks(p.Blocks, func(b *Block) {
			WalkDAG(append([]*Hop{b.Pred, b.From, b.To}, b.Roots...), func(h *Hop) {
				out = append(out, reflect.ValueOf(h).Elem())
			})
		})
	}
	return out
}

// perturb changes v in place and reports whether it could. An unexported
// field is changed through its address.
func perturb(t *testing.T, name string, v reflect.Value) bool {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Append(v, fresh(v.Type().Elem())))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Map:
		if v.Len() == 0 {
			return false
		}
		v.Set(reflect.Zero(v.Type()))
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(fresh(v.Type()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Interface:
		if v.IsNil() {
			return false
		}
		v.Set(reflect.Zero(v.Type()))
	default:
		t.Fatalf("%s has kind %s: teach perturb to change it, then cover it in AppendKey or list it in keyExcluded", name, v.Kind())
	}
	return true
}

// fresh returns a new value of type typ: a zero struct behind a pointer,
// else the zero value.
func fresh(typ reflect.Type) reflect.Value {
	if typ.Kind() == reflect.Pointer {
		return reflect.New(typ.Elem())
	}
	return reflect.Zero(typ)
}

// TestKeyCoversOptimizerFields perturbs every field of Hop, Block and
// Program on a freshly compiled MLogreg program. A covered field must change
// the encoding and an excluded one must not, so a field added to any of
// the three structs fails here until it is classified.
func TestKeyCoversOptimizerFields(t *testing.T) {
	fs := testFS(1_000_000, 100)
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Hop{}), reflect.TypeOf(Block{}), reflect.TypeOf(Program{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			_, excluded := keyExcluded[name]
			p := compileSpec(t, scripts.MLogreg(), fs)
			base := AppendKey(nil, p)
			perturbed := false
			for _, target := range keyTargets(p, typ) {
				if perturbed = perturb(t, name, target.Field(i)); perturbed {
					break
				}
			}
			switch changed := !bytes.Equal(base, AppendKey(nil, p)); {
			case !perturbed && !excluded:
				t.Errorf("%s: no value in MLogreg to perturb", name)
			case changed && excluded:
				t.Errorf("%s is listed as excluded but changes the encoding", name)
			case perturbed && !changed && !excluded:
				t.Errorf("%s: perturbing it leaves the encoding unchanged; cover it in AppendKey or list it in keyExcluded with a reason", name)
			}
		}
	}
	for name := range keyExcluded {
		if !seen[name] {
			t.Errorf("keyExcluded names %s, which is not a field", name)
		}
	}
}

// TestKeyIgnoresHopIDs pins that two rebuilds of the same blocks against
// the same metadata encode identically although their hop IDs differ.
func TestKeyIgnoresHopIDs(t *testing.T) {
	fs := testFS(1_000_000, 100)
	spec := scripts.MLogreg()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(fs, spec.Params)
	hp, err := c.Compile(prog, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	meta := SymTab{"X": {IsMatrix: true, Rows: 1_000_000, Cols: 100, NNZ: 100_000_000}}
	a, err := c.RebuildScope(hp.Blocks, meta.Clone())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RebuildScope(hp.Blocks, meta)
	if err != nil {
		t.Fatal(err)
	}
	firstID := func(p *Program) int64 { return keyTargets(p, reflect.TypeOf(Hop{}))[0].Interface().(Hop).ID }
	if firstID(a) == firstID(b) {
		t.Fatalf("both rebuilds start at hop ID %d; the test needs differing IDs", firstID(a))
	}
	if !bytes.Equal(AppendKey(nil, a), AppendKey(nil, b)) {
		t.Error("two rebuilds of the same blocks and metadata encode differently")
	}
}

// TestRebuildNeedsTheProgramsCompiler: a compiler that compiled no
// program has no script to hold templates and write sets, so a scope
// rebuild on it fails, whether the scope starts at a generic block or at
// a loop whose merge reads the write sets, instead of building outside
// the program's script.
func TestRebuildNeedsTheProgramsCompiler(t *testing.T) {
	fs := testFS(1000, 10)
	spec := scripts.LinregCG()
	hp := compileSpec(t, spec, fs)
	loop := slices.IndexFunc(hp.Blocks, func(b *Block) bool { return b.Kind == dml.WhileBlockKind })
	if loop < 0 {
		t.Fatalf("%s has no top-level while loop; the test needs one", spec.Name)
	}
	for name, scope := range map[string][]*Block{"the whole program": hp.Blocks, "a scope from the loop": hp.Blocks[loop:]} {
		if _, err := NewCompiler(fs, spec.Params).RebuildScope(scope, SymTab{}); err == nil {
			t.Errorf("a compiler that compiled no program rebuilt %s", name)
		}
	}
}
