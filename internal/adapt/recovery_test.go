package adapt

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/perf"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// captureAdapter records one adaptation context, the first unless at
// says which (counted from 0), while delegating to a real adapter, so
// tests can replay the context with altered fields.
type captureAdapter struct {
	inner *Adapter
	at    int
	seen  int
	ctx   *rt.AdaptContext
}

func (c *captureAdapter) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	if c.seen == c.at {
		c.ctx = replay(ctx)
	}
	c.seen++
	return c.inner.Adapt(ctx)
}

// replay copies a context for one more consult. Adapt hands ctx.Meta to
// RebuildScope, which owns it, so every consult gets its own table.
func replay(ctx *rt.AdaptContext) *rt.AdaptContext {
	c := *ctx
	c.Meta = ctx.Meta.Clone()
	return &c
}

func TestContainerLossReoptimizesAndCompletes(t *testing.T) {
	ip, ad, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	nodes0 := ip.CC.Nodes
	ad.OptCharge = 2 // deterministic simulated charge
	ip.Faults = fault.MustInjector(fault.Plan{Seed: 1,
		NodeFailures: []fault.NodeFailure{{Node: 0, At: 0}}})
	if err := ip.Run(plan); err != nil {
		t.Fatalf("run with node failure: %v", err)
	}
	if ip.Stats.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d", ip.Stats.NodeFailures)
	}
	if ad.Stats.ContainerLossReopts == 0 {
		t.Error("node failure did not trigger a container-loss re-optimization")
	}
	if ip.CC.Nodes != nodes0-1 {
		t.Errorf("cluster is %d nodes, want %d", ip.CC.Nodes, nodes0-1)
	}
}

func TestGracefulDegradationUnderNodeLoss(t *testing.T) {
	run := func(failures []fault.NodeFailure) float64 {
		ip, ad, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
		ad.OptCharge = 2
		if len(failures) > 0 {
			ip.Faults = fault.MustInjector(fault.Plan{Seed: 1, NodeFailures: failures})
		}
		if err := ip.Run(plan); err != nil {
			t.Fatalf("run: %v", err)
		}
		return ip.SimTime
	}
	healthy := run(nil)
	degraded := run([]fault.NodeFailure{{Node: 0, At: 0}, {Node: 1, At: 1}})
	// Fewer nodes must cost time, but bounded: re-optimization under the
	// shrunken cluster keeps the slowdown proportionate, not catastrophic.
	if degraded <= healthy {
		t.Errorf("losing 2 nodes should not be free: %.1fs vs %.1fs", degraded, healthy)
	}
	if degraded > healthy*4 {
		t.Errorf("degradation not graceful: %.1fs vs %.1fs", degraded, healthy)
	}
}

// adaptedContext runs the adaptation scenario once and returns a genuine
// recompile-trigger context for replay-based edge-case tests.
func adaptedContext(t *testing.T) (*rt.AdaptContext, conf.Cluster) {
	t.Helper()
	ip, ad, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	cap := &captureAdapter{inner: ad}
	ip.Adapter = cap
	if err := ip.Run(plan); err != nil {
		t.Fatal(err)
	}
	if cap.ctx == nil {
		t.Fatal("adapter never consulted")
	}
	return cap.ctx, ip.CC
}

func TestMigrationDeclinedWhenCostExceedsBenefit(t *testing.T) {
	ctx, cc := adaptedContext(t)
	// A petabyte of dirty state makes C_M astronomically larger than any
	// achievable ΔC: the adapter must keep the current container.
	declined := replay(ctx)
	declined.DirtyBytes = conf.Bytes(1) << 50
	ad := New(cc)
	ad.Opt.Points = 7
	ad.OptCharge = 0
	dec := ad.Adapt(declined)
	if dec == nil {
		t.Fatal("re-optimization itself should still succeed")
	}
	if dec.Migrate {
		t.Error("migration accepted although C_M >> ΔC")
	}
	if ad.Stats.Migrations != 0 {
		t.Errorf("Migrations = %d", ad.Stats.Migrations)
	}
}

func TestZeroDirtyVariablesMigrationCost(t *testing.T) {
	ctx, cc := adaptedContext(t)
	// With no dirty variables the only migration cost is the container
	// allocation latency (the checkpoint export is empty).
	clean := replay(ctx)
	clean.DirtyBytes = 0
	ad := New(cc)
	ad.Opt.Points = 7
	ad.OptCharge = 0
	dec := ad.Adapt(clean)
	if dec == nil {
		t.Fatal("no decision")
	}
	if !dec.Migrate {
		t.Skip("scenario no longer migrates; cost assertion not applicable")
	}
	if got, want := dec.ExtraTime, perf.Default().ContainerAllocLatency; got != want {
		t.Errorf("zero-dirty migration cost = %.3fs, want bare alloc latency %.3fs", got, want)
	}
}

func TestScopeAnchorsAtOutermostLoop(t *testing.T) {
	ip, _, plan := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	_ = ip
	// Find a generic block nested inside two loops, tracking the loop stack
	// (outermost first) like the interpreter does.
	var genb *lop.Block
	var encl []*hop.Block
	var walk func(blocks []*hop.Block, stack []*hop.Block)
	walk = func(blocks []*hop.Block, stack []*hop.Block) {
		for _, b := range blocks {
			switch b.Kind {
			case dml.GenericBlock:
				if genb == nil && len(stack) >= 2 {
					genb = plan.Blocks[b.Index]
					encl = append([]*hop.Block{}, stack...)
				}
			case dml.IfBlockKind:
				walk(b.Then, append(stack, b))
				walk(b.Else, append(stack, b))
			default:
				walk(b.Body, append(stack, b))
			}
		}
	}
	walk(plan.HopProgram.Blocks, nil)
	if genb == nil {
		t.Fatal("MLogreg should contain a generic block inside nested loops")
	}
	ctx := &rt.AdaptContext{Plan: plan, Block: genb, Enclosing: encl}
	got := scope(ctx)
	if len(got) == 0 {
		t.Fatal("empty scope")
	}
	// The scope must start at the top-level block containing the OUTERMOST
	// enclosing loop and run through the end of the program.
	var outerLoop *hop.Block
	for _, b := range encl {
		if b.Kind == dml.WhileBlockKind || b.Kind == dml.ForBlockKind {
			outerLoop = b
			break
		}
	}
	if outerLoop == nil {
		t.Fatal("no enclosing loop found")
	}
	if !containsBlock(got[0], outerLoop) {
		t.Error("scope does not start at the outermost enclosing loop")
	}
	prog := plan.HopProgram
	if got[len(got)-1] != prog.Blocks[len(prog.Blocks)-1] {
		t.Error("scope does not extend to the end of the program")
	}
}
