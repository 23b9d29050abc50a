package rt

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/scripts"
)

// TestRecompileReadSet simulates every paper script and the mini-batch
// family on XS and S in all four data shapes, and recompiles each
// recompiled leaf block twice: as the run does, against every live
// variable, and, on a fork of the run's compiler, against a table of the
// block's read set alone. The two must encode alike, so a name a recompile
// looks up but Block.Reads misses fails here.
func TestRecompileReadSet(t *testing.T) {
	var name string
	checked := map[string]int{}
	defer CheckReadSets(func(b, nb *hop.Block, diff error) {
		checked[name]++
		if nb != nil {
			checkWrites(t, name, b, nb)
		}
		if diff != nil {
			t.Errorf("%s block %d (lines %d-%d): %v", name, b.Index, b.FirstLine, b.LastLine, diff)
		}
	})()
	res := conf.NewResources(512*conf.MB, 2*conf.GB, 64)
	runs := 0
	for _, spec := range append(scripts.All(), scripts.Minibatch()...) {
		for _, size := range []string{"XS", "S"} {
			for _, sh := range datagen.Shapes() {
				sc := datagen.New(size, sh.Cols, sh.Sparsity)
				name = spec.Name + " " + sc.String()
				fs := hdfs.New()
				datagen.Describe(fs, sc)
				plan := compilePlan(t, spec, fs, res)
				ip := New(ModeSim, fs, conf.DefaultCluster(), res)
				if err := ip.Run(plan); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runs++
				if checked[name] != ip.Stats.Recompiles {
					t.Fatalf("%s: %d recompiles, %d checked", name, ip.Stats.Recompiles, checked[name])
				}
			}
		}
	}
	total := 0
	for _, n := range checked {
		total += n
	}
	if total == 0 {
		t.Fatal("no run recompiled a block: the test shows nothing")
	}
	t.Logf("%d recompiled blocks checked over %d runs, %d of which recompiled", total, runs, len(checked))
}

// checkWrites fails unless every variable the recompiled block nb writes
// is one the compiled block b writes: a recompile must not bring back the
// dead matrix writes the compiler pruned.
func checkWrites(t *testing.T, name string, b, nb *hop.Block) {
	t.Helper()
	writes := map[string]bool{}
	for _, r := range b.Roots {
		if r.Kind == hop.KindTWrite {
			writes[r.Name] = true
		}
	}
	for _, r := range nb.Roots {
		if r.Kind == hop.KindTWrite && !writes[r.Name] {
			t.Errorf("%s block %d (lines %d-%d): the recompiled block writes %s, the compiled block does not",
				name, b.Index, b.FirstLine, b.LastLine, r.Name)
		}
	}
}

// TestRecompileKeepsPrunedWrites: MLogreg S sparse100 with 20 classes runs
// CP-only at 682.7 MB as fast as at 1.3 GB. Its recompiled blocks used to
// bring back the matrix writes the compiler had pruned as dead; their
// extra bindings overflowed the smaller buffer pool and the run took
// 42.67 s instead of 3.45 s.
func TestRecompileKeepsPrunedWrites(t *testing.T) {
	run := func(cp conf.Bytes) *Interp {
		sc := datagen.New("S", 100, 0.01)
		fs := hdfs.New()
		datagen.Describe(fs, sc)
		res := conf.NewResources(cp, 2*conf.GB, 64)
		plan := compilePlan(t, scripts.MLogreg(), fs, res)
		ip := New(ModeSim, fs, conf.DefaultCluster(), res)
		ip.SimTableCols = 20
		if err := ip.Run(plan); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
		return ip
	}
	small, large := run(715_862_835), run(1_395_864_371) // 682.7 MB, 1.3 GB
	if small.Stats.MRJobs != 0 || small.Stats.Recompiles == 0 {
		t.Fatalf("not a CP-only run that recompiles: %+v", small.Stats)
	}
	if small.SimTime > large.SimTime*1.01 {
		t.Errorf("682.7 MB simulates %.2f s, 1.3 GB %.2f s", small.SimTime, large.SimTime)
	}
}
