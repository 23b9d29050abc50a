package rt

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

// turnsUnknown is a loop whose recompiled body folds z at its first
// execution, while s is known, and not at the later ones: a slab hop that
// kept what the first inference found would fold it again.
var turnsUnknown = scripts.Spec{Name: "turnsUnknown", Params: map[string]interface{}{"X": datagen.PathX}, Source: `
X = read($X);
s = 1;
for (i in 1:3) {
  Y = X[1:i, ];
  z = s * 2;
  s = sum(Y) + z;
}
print(s);
`}

// TestReusedBuffersMatchFresh simulates every paper-grid problem of
// TestCompileGolden, the mini-batch family and turnsUnknown twice: as a run
// does, each execution of a block recompiling, selecting and evaluating
// into the storage of the last one, and with new storage throughout
// (Interp.fresh). Every recompile into a reused buffer must encode — DAG,
// sizes and memory estimates — as a fresh RecompileGeneric(b, vars, nil) on
// a fork of the run's compiler does, and the two runs must recompile to the
// same blocks in the same order and end with the same simulated time,
// counters and live variables.
func TestReusedBuffersMatchFresh(t *testing.T) {
	defer func(f func(*Interp, *hop.Block, *hop.Block) (*hop.Block, error)) { recompile = f }(recompile)
	var name string
	var keys [][]byte
	reused := 0
	recompile = func(ip *Interp, b, prev *hop.Block) (*hop.Block, error) {
		fresh, ferr := ip.Compiler.Fork(ip.FS).RecompileGeneric(b, liveVars(ip.Vars), nil)
		nb, err := ip.Compiler.RecompileGeneric(b, liveVars(ip.Vars), prev)
		if fmt.Sprint(err) != fmt.Sprint(ferr) {
			t.Errorf("%s block %d: recompiled into the last buffer gives %v, afresh %v", name, b.Index, err, ferr)
		} else if err == nil {
			key := blockKey(nb)
			if !bytes.Equal(key, blockKey(fresh)) {
				t.Errorf("%s block %d (lines %d-%d): the recompile into the last buffer differs from a fresh one",
					name, b.Index, b.FirstLine, b.LastLine)
			}
			keys = append(keys, key)
		}
		if prev != nil {
			reused++
		}
		return nb, err
	}
	cases := 0
	for _, family := range []struct {
		specs []scripts.Spec
		sizes []string
	}{
		{scripts.All(), datagen.Sizes},
		{scripts.Minibatch(), []string{"XS", "S", "M"}},
		{[]scripts.Spec{turnsUnknown}, []string{"XS"}},
	} {
		for _, spec := range family.specs {
			for _, size := range family.sizes {
				for _, sh := range datagen.Shapes() {
					sc := datagen.New(size, sh.Cols, sh.Sparsity)
					name = spec.Name + " " + sc.String()
					keys = nil
					ip := simulateReuse(t, name, spec, sc, false)
					reusedKeys := keys
					keys = nil
					ref := simulateReuse(t, name, spec, sc, true)
					cases++
					switch {
					case len(reusedKeys) != len(keys):
						t.Errorf("%s: %d recompiles reusing buffers, %d with fresh ones", name, len(reusedKeys), len(keys))
					case ip.SimTime != ref.SimTime || ip.Stats != ref.Stats:
						t.Errorf("%s: reusing buffers simulates %.6g s %+v, fresh ones %.6g s %+v",
							name, ip.SimTime, ip.Stats, ref.SimTime, ref.Stats)
					case !maps.EqualFunc(ip.Vars, ref.Vars, func(a, b *Value) bool { return a.meta() == b.meta() }):
						t.Errorf("%s: the live variables differ from a run with fresh buffers", name)
					}
					for i := range min(len(reusedKeys), len(keys)) {
						if !bytes.Equal(reusedKeys[i], keys[i]) {
							t.Errorf("%s: recompile %d differs from the one of a run with fresh buffers", name, i)
							break
						}
					}
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no recompile reused a buffer: the test shows nothing")
	}
	t.Logf("%d problems, %d recompiles into a reused buffer", cases, reused)
}

// simulateReuse simulates spec on sc at 512 MB CP and 2 GB MR heaps, with
// fresh buffers throughout if fresh.
func simulateReuse(t *testing.T, name string, spec scripts.Spec, sc datagen.Scenario, fresh bool) *Interp {
	t.Helper()
	fs := hdfs.New()
	datagen.Describe(fs, sc)
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	plan := compilePlan(t, spec, fs, res)
	ip := New(ModeSim, fs, conf.DefaultCluster(), res)
	ip.fresh = fresh
	if err := ip.Run(plan); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ip
}
