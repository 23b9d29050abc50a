package hop_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/workload"
)

// resizeCheck compares every recompile, while installed, with the rebuild
// from the block's statements: the re-sized block must encode as the
// rebuilt one does. Runs may recompile on several goroutines.
type resizeCheck struct {
	t                     *testing.T
	mu                    sync.Mutex
	recompiles, fallbacks int
	restore               func()
}

func checkResizes(t *testing.T) *resizeCheck {
	rc := &resizeCheck{t: t}
	rc.restore = hop.OnRecompile(func(c *hop.Compiler, b *hop.Block, vars hop.Vars, nb *hop.Block, resized bool) {
		rebuilt, err := c.Fork(c.FS).Rebuild(b, vars)
		rc.mu.Lock()
		defer rc.mu.Unlock()
		rc.recompiles++
		if !resized {
			rc.fallbacks++
			return
		}
		switch {
		case err != nil:
			t.Errorf("block %d (lines %d-%d): re-sized, but the rebuild fails: %v", b.Index, b.FirstLine, b.LastLine, err)
		case !bytes.Equal(blockKey(nb), blockKey(rebuilt)):
			t.Errorf("block %d (lines %d-%d): the re-sized block differs from the rebuild:\n%s\nrebuilt:\n%s",
				b.Index, b.FirstLine, b.LastLine, listing(nb), listing(rebuilt))
		}
	})
	return rc
}

// counts uninstalls the check and returns what it saw.
func (rc *resizeCheck) counts() (recompiles, fallbacks int) {
	rc.restore()
	return rc.recompiles, rc.fallbacks
}

func blockKey(b *hop.Block) []byte { return hop.AppendKey(nil, leaf(b)) }

// listing renders a block's DAG in order, one hop a line.
func listing(b *hop.Block) string {
	var buf bytes.Buffer
	for _, h := range b.Order {
		fmt.Fprintf(&buf, "  %d %s known=%v val=%g trans=%v in=", h.Pos, h, h.KnownVal, h.Value, h.TransA)
		for _, in := range h.Inputs {
			if in == nil {
				buf.WriteString(" _")
			} else {
				fmt.Fprintf(&buf, " %d", in.Pos)
			}
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

// simRun simulates one script on one scenario with a fresh file system and
// compiler and returns the interpreter.
func simRun(t *testing.T, spec scripts.Spec, sc datagen.Scenario) *rt.Interp {
	t.Helper()
	prog, err := dml.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New()
	datagen.Describe(fs, sc)
	hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("%s %s: %v", spec.Name, sc, err)
	}
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	ip := rt.New(rt.ModeSim, fs, conf.DefaultCluster(), res)
	if err := ip.Run(lop.Select(hp, conf.DefaultCluster(), res)); err != nil {
		t.Fatalf("%s %s: %v", spec.Name, sc, err)
	}
	return ip
}

// TestResizeMatchesRebuild: every recompile of the five paper scripts and
// the mini-batch family, at XS, S and M in all four data shapes, re-sizes
// to the block the rebuild from source builds, and each run simulates the
// same time with the same counters as a run that rebuilds every block. The
// mini-batch family never falls back to the rebuild.
func TestResizeMatchesRebuild(t *testing.T) {
	for _, family := range []struct {
		name  string
		specs []scripts.Spec
	}{{"paper", scripts.All()}, {"mini-batch", scripts.Minibatch()}} {
		rc := checkResizes(t)
		var times []float64
		var stats []rt.Stats
		for _, spec := range family.specs {
			for _, size := range []string{"XS", "S", "M"} {
				for _, sh := range datagen.Shapes() {
					ip := simRun(t, spec, datagen.New(size, sh.Cols, sh.Sparsity))
					times, stats = append(times, ip.SimTime), append(stats, ip.Stats)
				}
			}
		}
		recompiles, fallbacks := rc.counts()
		restore := hop.RebuildOnly()
		k := 0
		for _, spec := range family.specs {
			for _, size := range []string{"XS", "S", "M"} {
				for _, sh := range datagen.Shapes() {
					sc := datagen.New(size, sh.Cols, sh.Sparsity)
					ip := simRun(t, spec, sc)
					if ip.SimTime != times[k] || ip.Stats != stats[k] {
						t.Errorf("%s %s: re-sized %.6g s %+v, rebuilt %.6g s %+v",
							spec.Name, sc, times[k], stats[k], ip.SimTime, ip.Stats)
					}
					k++
				}
			}
		}
		restore()
		t.Logf("%s: %d recompiles over %d runs, %d fell back to the rebuild", family.name, recompiles, k, fallbacks)
		if recompiles == 0 {
			t.Errorf("%s: no run recompiled a block", family.name)
		}
		if family.name == "mini-batch" && fallbacks != 0 {
			t.Errorf("mini-batch: %d of %d recompiles fell back to the rebuild", fallbacks, recompiles)
		}
	}
}

// TestResizeChurnTrace runs the malleable 24-job mini-batch trace of the
// workload package's prefetch tests (a contended 2-node cluster under the
// regret policy, with a straggler and a node flap) through batch Run,
// checking every recompile against the rebuild, and requires the report of
// a run that rebuilds every block to be byte-identical.
func TestResizeChurnTrace(t *testing.T) {
	cc := conf.DefaultCluster()
	cc.Nodes, cc.MemPerNode, cc.MaxAlloc = 2, conf.GB, conf.GB
	o := workload.DefaultOptions()
	o.Policy = workload.PolicyRegret
	o.Elastic.Tick = 5
	o.Chaos = fault.ChaosPlan{
		SlowNodes: []fault.SlowNode{{Node: 0, At: 20, Factor: 3, Duration: 40}},
		Flaps:     []fault.Flap{{Node: 1, At: 70, RestoreAfter: 20}},
	}
	run := func() []byte {
		rep, err := workload.Run(cc, workload.GenerateMinibatch(1, 24), o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rc := checkResizes(t)
	resized := run()
	recompiles, fallbacks := rc.counts()
	restore := hop.RebuildOnly()
	rebuilt := run()
	restore()
	t.Logf("%d recompiles, %d fell back to the rebuild", recompiles, fallbacks)
	if recompiles == 0 {
		t.Error("the trace recompiled no block")
	}
	if fallbacks != 0 {
		t.Errorf("%d of %d recompiles fell back to the rebuild", fallbacks, recompiles)
	}
	if !bytes.Equal(resized, rebuilt) {
		t.Error("the report differs from that of a run that rebuilds every block")
	}
}
