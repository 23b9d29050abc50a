package workload

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/hdfs"
	"elasticml/internal/lop"
	"elasticml/internal/obs"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
)

// deepHasher folds everything reachable from a value — unexported fields
// included — into one hash. Pointers hash as the order in which the walk
// first met them, so two walks agree exactly when the graphs have the same
// shape and the same leaf values, wherever they live in memory. The file
// system and the tracer are opaque: the first is hashed by its listing
// (inputListing), the second only counts.
type deepHasher struct {
	h    hash.Hash64
	seen map[uintptr]int
}

func deepHash(v interface{}) uint64 {
	d := &deepHasher{h: fnv.New64a(), seen: map[uintptr]int{}}
	d.walk(reflect.ValueOf(v))
	return d.h.Sum64()
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

// inputListing is every file of a staged file system with a deep hash of
// its metadata and payload and the payload's address — what identify reads
// and no later compile or run may change.
func inputListing(fs *hdfs.FS) string {
	var b strings.Builder
	for _, name := range fs.List() {
		f, err := fs.Stat(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%s %dx%d nnz=%d %s %p %x\n", name, f.Rows, f.Cols, f.NNZ, f.Format, f.Data, deepHash(f))
	}
	return b.String()
}

// corpusJobs identifies and compiles every program of the verify corpus in
// value mode (real matrices) and the same scripts as sim-mode scenario jobs
// (descriptors, with the unknowns dynamic recompilation resolves), and
// plans each under the live view.
func corpusJobs(t *testing.T) (*Service, []*planReq) {
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
	var reqs []*planReq
	for _, spec := range specs {
		j := s.jobs[s.submit(spec)]
		if j.id, err = identify(j.spec); err != nil {
			t.Fatalf("%s: %v", spec.Tenant, err)
		}
		staged := inputListing(j.id.fs)
		if err := s.program(j); err != nil {
			t.Fatalf("%s: %v", spec.Tenant, err)
		}
		if got := inputListing(j.id.fs); got != staged || len(j.id.fs.List()) != len(j.id.inputs) {
			t.Errorf("%s: compile changed the file system:\n%swas\n%s", spec.Tenant, got, staged)
		}
		reqs = append(reqs, &planReq{j: j, view: s.live()})
	}
	return s, reqs
}

// TestSimulateLeavesProgramUntouched: a compiled program is immutable under
// a run, over the verify corpus in both modes. Pinned:
//
//   - compile does not touch the file system: identify may list the inputs
//     before any compile;
//   - the optimizer, lop.Select and Interp.Run leave the hop program
//     bit-identical — every block, DAG, size and recompile flag: dynamic
//     recompilation and scope rebuilds produce new blocks and never patch
//     the compiled ones;
//   - the run leaves the compiler bit-identical, its ID counter included:
//     the hops a dynamic recompilation builds are numbered by the run's own
//     fork of it;
//   - the run leaves the staged file system bit-identical — every name,
//     metadata and payload: the files it writes land in its own view.
//
// So one compiled program serves every plan and run of its job.
func TestSimulateLeavesProgramUntouched(t *testing.T) {
	s, reqs := corpusJobs(t)
	recompiled := 0
	for _, p := range reqs {
		id, name := p.j.id, p.j.result.Tenant
		tr := obs.New(false)
		id.prog.Compiler().Trace = tr // counts the fork's recompiles
		id.fs.SetTracer(tr)           // counts the run's writes
		hp, comp, staged := deepHash(id.prog), deepHash(id.prog.Compiler()), inputListing(id.fs)
		s.plan(p)
		if deepHash(id.prog) != hp {
			t.Errorf("%s: the optimizer mutated the hop program", name)
		}
		lop.Select(id.prog, s.live(), p.res)
		if deepHash(id.prog) != hp {
			t.Errorf("%s: lop.Select mutated the hop program", name)
		}
		sr := simulate(id, s.live(), p.res)
		if sr.err != nil {
			t.Fatalf("%s: %v", name, sr.err)
		}
		if deepHash(id.prog) != hp {
			t.Errorf("%s: the run mutated the hop program", name)
		}
		if deepHash(id.prog.Compiler()) != comp {
			t.Errorf("%s: the run mutated the compiler", name)
		}
		if got := inputListing(id.fs); got != staged {
			t.Errorf("%s: the run changed the staged file system:\n%swas\n%s", name, got, staged)
		}
		m := tr.Metrics()
		if m.Counter("hdfs.writes") == 0 || id.mode == rt.ModeValue && len(sr.outputs) == 0 {
			t.Errorf("%s: the run wrote no output file", name)
		}
		if m.Counter("compile.recompiles") > 0 {
			recompiled++
		}
	}
	// A run that recompiles is the one that would advance a shared counter;
	// if no corpus script recompiles any more, the compiler finding above
	// proves nothing.
	if recompiled == 0 {
		t.Errorf("no run of %d recompiled a block", len(reqs))
	}
}

// TestSharedProgramRunsConcurrently: two runs of one compiled program on
// two goroutines yield the outcome and the outputs of a run alone. The
// race detector (make race) watches the shared program, compiler and
// staged file system.
func TestSharedProgramRunsConcurrently(t *testing.T) {
	s, reqs := corpusJobs(t)
	for _, p := range reqs {
		s.plan(p)
		alone := simulate(p.j.id, s.live(), p.res)
		var pair [2]simResult
		var wg sync.WaitGroup
		for k := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pair[k] = simulate(p.j.id, s.live(), p.res)
			}()
		}
		wg.Wait()
		for _, sr := range append(pair[:], alone) {
			if sr.err != nil {
				t.Fatalf("%s: %v", p.j.result.Tenant, sr.err)
			}
			if *sr.outcome != *alone.outcome || deepHash(sr.outputs) != deepHash(alone.outputs) {
				t.Errorf("%s: concurrent runs of one program differ:\n%+v\n%+v", p.j.result.Tenant, *sr.outcome, *alone.outcome)
			}
		}
	}
}
