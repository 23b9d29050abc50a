package obs_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/mr"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// outcome is what a simulated run reports besides its trace.
type outcome struct {
	simBits uint64
	stats   rt.Stats
	res     conf.Resources
	err     string
}

// observedRun simulates plan once with the adapter at its default charge
// and tr (nil: untraced) attached to the interpreter, the adapter and the
// file system. faulty turns on task failures, stragglers and a node loss.
func observedRun(t *testing.T, hp *hop.Program, fs *hdfs.FS, cc conf.Cluster, res conf.Resources, faulty bool, tr *obs.Tracer) outcome {
	t.Helper()
	fs = fs.Clone()
	fs.SetTracer(tr)
	ip := rt.New(rt.ModeSim, fs, cc, res)
	ip.SimTableCols = 20
	ip.Trace = tr
	ad := adapt.New(cc)
	ad.Trace = tr
	ip.Adapter = ad
	if faulty {
		ip.Faults = fault.MustInjector(fault.Plan{
			Seed:            11,
			TaskFailureProb: 0.05,
			StragglerProb:   0.05,
			StragglerFactor: 6,
			NodeFailures:    []fault.NodeFailure{{Node: 1, At: 5}},
		})
		ip.Policy = mr.TaskPolicy{Speculative: true}
	}
	var o outcome
	if err := ip.Run(lop.SelectTraced(hp, cc, res, tr)); err != nil {
		o.err = err.Error()
	}
	o.simBits, o.stats, o.res = math.Float64bits(ip.SimTime), ip.Stats, ip.Res
	return o
}

// TestObservationChangesNothing: a tracer only observes. Every paper script
// and the mini-batch family, at S and M in all four shapes, optimized and
// run with the adapter's default re-optimization charge, with task faults
// and a node loss off and on, reports the same simulated time to the bit,
// the same interpreter statistics and the same final resources untraced,
// with spans and metrics, and with metrics alone.
func TestObservationChangesNothing(t *testing.T) {
	cc := conf.DefaultCluster()
	var total rt.Stats
	for _, spec := range append(scripts.All(), scripts.Minibatch()...) {
		prog, err := dml.Parse(spec.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", spec.Name, err)
		}
		for _, size := range []string{"S", "M"} {
			for _, sh := range datagen.Shapes() {
				s := datagen.New(size, sh.Cols, sh.Sparsity)
				fs := hdfs.New()
				datagen.Describe(fs, s)
				hp, err := hop.NewCompiler(fs, spec.Params).Compile(prog, spec.Source)
				if err != nil {
					t.Fatalf("%s %s: compile: %v", spec.Name, s, err)
				}
				res := opt.New(cc).Optimize(hp).Res
				for _, faulty := range []bool{false, true} {
					name := fmt.Sprintf("%s %s faults=%v", spec.Name, s, faulty)
					want := observedRun(t, hp, fs, cc, res, faulty, nil)
					for _, spans := range []bool{true, false} {
						got := observedRun(t, hp, fs, cc, res, faulty, obs.New(spans))
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: obs.New(%v) run differs from the untraced one:\n%+v\nvs\n%+v", name, spans, got, want)
						}
					}
					total.Migrations += want.stats.Migrations
					total.TaskRetries += want.stats.TaskRetries
					total.NodeFailures += want.stats.NodeFailures
				}
			}
		}
	}
	if total.Migrations == 0 || total.TaskRetries == 0 || total.NodeFailures == 0 {
		t.Errorf("the cases exercise too little: %d migrations, %d task retries, %d node losses",
			total.Migrations, total.TaskRetries, total.NodeFailures)
	}
	t.Logf("%d migrations, %d task retries, %d node losses", total.Migrations, total.TaskRetries, total.NodeFailures)
}
