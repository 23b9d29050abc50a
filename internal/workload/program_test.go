package workload

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/obs"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
)

// deepHasher folds everything reachable from a value — unexported fields
// included — into one hash. Pointers hash as the order in which the walk
// first met them, so two walks agree exactly when the graphs have the same
// shape and the same leaf values, wherever they live in memory. The file
// system and the tracer are opaque: the first is hashed by its listing
// (inputListing), the second is nil in the service.
type deepHasher struct {
	h    hash.Hash64
	seen map[uintptr]int
}

func deepHash(v interface{}) uint64 {
	d := &deepHasher{h: fnv.New64a(), seen: map[uintptr]int{}}
	d.walk(reflect.ValueOf(v))
	return d.h.Sum64()
}

// compilerState splits a compiler's state into its ID counter and a deep
// hash of every other field.
func compilerState(c *hop.Compiler) (others uint64, nextID int64) {
	d := &deepHasher{h: fnv.New64a(), seen: map[uintptr]int{}}
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name == "nextID" {
			nextID = v.Field(i).Int()
		} else {
			fmt.Fprintf(d.h, ".%s=", name)
			d.walk(v.Field(i))
		}
	}
	return d.h.Sum64(), nextID
}

var opaque = map[reflect.Type]bool{
	reflect.TypeOf(hdfs.FS{}):    true,
	reflect.TypeOf(obs.Tracer{}): true,
}

func (d *deepHasher) walk(v reflect.Value) {
	if !v.IsValid() {
		fmt.Fprint(d.h, "<invalid>")
		return
	}
	fmt.Fprintf(d.h, "%s:", v.Type())
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprint(d.h, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(d.h, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(d.h, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(d.h, "%x", v.Float())
	case reflect.String:
		fmt.Fprintf(d.h, "%q", v.String())
	case reflect.Ptr:
		if v.IsNil() {
			fmt.Fprint(d.h, "nil")
			return
		}
		if n, ok := d.seen[v.Pointer()]; ok {
			fmt.Fprintf(d.h, "#%d", n)
			return
		}
		d.seen[v.Pointer()] = len(d.seen)
		if opaque[v.Type().Elem()] {
			return
		}
		d.walk(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(d.h, "nil")
			return
		}
		d.walk(v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprint(d.h, "nil")
			return
		}
		fmt.Fprintf(d.h, "[%d]", v.Len())
		for i := 0; i < v.Len(); i++ {
			d.walk(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			fmt.Fprint(d.h, "nil")
			return
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(a, b int) bool { return fmt.Sprint(keys[a]) < fmt.Sprint(keys[b]) })
		fmt.Fprintf(d.h, "{%d}", len(keys))
		for _, k := range keys {
			d.walk(k)
			d.walk(v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(d.h, ".%s=", v.Type().Field(i).Name)
			d.walk(v.Field(i))
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		fmt.Fprint(d.h, v.IsNil())
	default:
		panic("deepHash: unhandled kind " + v.Kind().String())
	}
}

// inputListing is the metadata of every file that is not a program output,
// with the identity of its payload — what identify reads and a later
// compile or run must find unchanged.
func inputListing(fs *hdfs.FS) string {
	var b strings.Builder
	for _, name := range fs.List() {
		if strings.HasPrefix(name, "/out") {
			continue
		}
		f, err := fs.Stat(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%s %dx%d nnz=%d %s %p\n", name, f.Rows, f.Cols, f.NNZ, f.Format, f.Data)
	}
	return b.String()
}

// TestSimulateLeavesProgramUntouched characterises what building and running
// a program mutates, over the verify corpus in value mode (real matrices)
// and the same scripts as sim-mode scenario jobs (descriptors, with the
// unknowns dynamic recompilation resolves). Three findings, each pinned:
//
//   - compile does not touch the file system: identify may list the inputs
//     before any compile;
//   - lop.Select and Interp.Run leave the hop program bit-identical — every
//     block, DAG, size and recompile flag: dynamic recompilation and scope
//     rebuilds produce new blocks and never patch the compiled ones;
//   - what a run does mutate is (a) the compiler's ID counter, by exactly
//     the hops a dynamic recompilation built (its Params, its function table
//     and nothing else move), and (b) the file system, by the /out files it
//     writes; every input file keeps its metadata and its payload.
//
// So a compiled{fs,comp,hp} is not reusable as it stands only because of
// the counter and the output files: a per-run compiler handle and an output
// overlay are all a retained, shared program would need.
func TestSimulateLeavesProgramUntouched(t *testing.T) {
	var specs []JobSpec
	for _, p := range verify.Corpus() {
		specs = append(specs, JobSpec{Tenant: p.Name + "/value", Source: p.Source, Params: p.Params, Setup: p.Setup})
	}
	for _, sc := range scripts.All() {
		specs = append(specs, JobSpec{Tenant: sc.Name + "/sim", Script: sc, Scenario: datagen.New("M", 1000, 1.0)})
	}
	s, err := New(demoCluster(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	counterMoved := 0
	for _, spec := range specs {
		j := s.jobs[s.submit(spec)]
		id, fs, err := s.identify(j)
		if err != nil {
			t.Fatalf("%s: %v", spec.Tenant, err)
		}
		j.id = id
		staged := inputListing(fs)
		c, err := s.compile(id, fs)
		if err != nil {
			t.Fatalf("%s: %v", spec.Tenant, err)
		}
		if got := inputListing(fs); got != staged || len(fs.List()) != len(id.inputs) {
			t.Errorf("%s: compile changed the file system:\n%swas\n%s", spec.Tenant, got, staged)
		}

		p := &planReq{j: j, c: c, view: s.live}
		s.plan(p)
		hp := deepHash(c.hp)
		comp, nextID := compilerState(c.comp)
		lop.Select(c.hp, s.live, p.res)
		if deepHash(c.hp) != hp {
			t.Errorf("%s: lop.Select mutated the hop program", spec.Tenant)
		}
		if sr := s.simulate(p); sr.err != nil {
			t.Fatalf("%s: %v", spec.Tenant, sr.err)
		}
		if deepHash(c.hp) != hp {
			t.Errorf("%s: the run mutated the hop program", spec.Tenant)
		}
		after, afterID := compilerState(c.comp)
		if after != comp {
			t.Errorf("%s: the run mutated the compiler beyond its ID counter", spec.Tenant)
		}
		if afterID != nextID {
			counterMoved++
		}
		if got := inputListing(fs); got != staged {
			t.Errorf("%s: the run changed an input file:\n%swas\n%s", spec.Tenant, got, staged)
		}
		if len(fs.List()) <= len(id.inputs) {
			t.Errorf("%s: the run wrote no output file", spec.Tenant)
		}
	}
	// The counter is the one piece of program state a run moves; if no
	// corpus script recompiles any more, the finding above needs rewriting.
	if counterMoved == 0 {
		t.Errorf("no run of %d advanced the compiler's ID counter", len(specs))
	}
}
