package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
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

// tracedScenario executes the full pipeline — parse, compile, optimize,
// select, adapt-enabled simulated execution under fault injection — with a
// tracer attached to every layer, mirroring elastic-run's wiring, and
// returns the Chrome trace export.
func tracedScenario(t *testing.T) []byte {
	t.Helper()
	spec := scripts.MLogreg()
	n, m := int64(1_000_000), int64(100)
	fs := hdfs.New()
	tr := obs.New(true)
	fs.SetTracer(tr)
	fs.PutDescriptor("/data/X", n, m, n*m, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y", n, 1, n, hdfs.BinaryBlock)
	fs.PutDescriptor("/data/y_labels", n, 1, n, hdfs.BinaryBlock)

	psp := tr.Begin(obs.LayerCompile, "dml.parse")
	prog, err := dml.Parse(spec.Source)
	psp.End()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	comp := hop.NewCompiler(fs, spec.Params)
	comp.Trace = tr
	hp, err := comp.Compile(prog, spec.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	cc := conf.DefaultCluster()
	o := opt.New(cc)
	o.Trace = tr
	o.Opts.Points = 7
	res := o.Optimize(hp).Res

	plan := lop.SelectTraced(hp, cc, res, tr)
	ip := rt.New(rt.ModeSim, fs, cc, res)
	ip.SimTableCols = 200
	ip.Trace = tr
	ad := adapt.New(cc)
	ad.Opt.Points = 7
	ad.Trace = tr
	ip.Adapter = ad
	ip.Faults = fault.MustInjector(fault.Plan{
		Seed:            7,
		TaskFailureProb: 0.05,
		StragglerProb:   0.05,
		StragglerFactor: 6,
		NodeFailures:    []fault.NodeFailure{{Node: 0, At: 50}},
	})
	ip.Policy = mr.TaskPolicy{Speculative: true}
	if err := ip.Run(plan); err != nil {
		t.Fatalf("run: %v", err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossRuns: two identical simulations must produce
// byte-identical Chrome traces, with spans from all five layers.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	a := tracedScenario(t)
	b := tracedScenario(t)
	if !bytes.Equal(a, b) {
		t.Fatal("traces differ across identical runs")
	}

	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
			Ts  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byLayer := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			byLayer[ev.Cat]++
		}
	}
	for _, layer := range []obs.Layer{obs.LayerCompile, obs.LayerOptimize,
		obs.LayerRuntime, obs.LayerCluster, obs.LayerAdapt} {
		if byLayer[string(layer)] == 0 {
			t.Errorf("no events on layer %q (got %v)", layer, byLayer)
		}
	}
}
