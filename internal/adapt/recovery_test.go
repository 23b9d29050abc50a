package adapt

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/fault"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/perf"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// captureAdapter records one adaptation context of ip's run, the first
// unless at says which (counted from 0), while delegating to a real
// adapter, so tests can replay the context with altered fields. The
// recorded context's Vars is a hop.SymTab of every variable of ip at the
// consult.
type captureAdapter struct {
	inner *Adapter
	ip    *rt.Interp
	at    int
	seen  int
	ctx   *rt.AdaptContext
}

func (c *captureAdapter) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	if c.seen == c.at {
		rec := *ctx
		rec.Vars = snapshot(c.ip, ctx.Vars)
		c.ctx = &rec
	}
	c.seen++
	return c.inner.Adapt(ctx)
}

// snapshot copies what vars, a consult's view of ip's variables, serves
// for each of them into a table the run does not go on to change.
func snapshot(ip *rt.Interp, vars hop.Vars) hop.SymTab {
	tab := make(hop.SymTab, len(ip.Vars))
	for name := range ip.Vars {
		tab[name], _ = vars.Meta(name)
	}
	return tab
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
	cap := &captureAdapter{inner: ad, ip: ip}
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
	declined := *ctx
	declined.DirtyBytes = conf.Bytes(1) << 50
	ad := New(cc)
	ad.Opt.Points = 7
	ad.OptCharge = 0
	dec := ad.Adapt(&declined)
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
	clean := *ctx
	clean.DirtyBytes = 0
	ad := New(cc)
	ad.Opt.Points = 7
	ad.OptCharge = 0
	dec := ad.Adapt(&clean)
	if dec == nil {
		t.Fatal("no decision")
	}
	if !dec.Migrate {
		t.Skip("scenario no longer migrates; cost assertion not applicable")
	}
	if got, want := dec.ExtraTime, perf.ContainerAllocLatency; got != want {
		t.Errorf("zero-dirty migration cost = %.3fs, want bare alloc latency %.3fs", got, want)
	}
}

// nestedSrc holds a generic block nested if -> while -> if, whose
// predicates the compiler cannot fold.
const nestedSrc = `X = read($X);
s = 0;
i = 0;
if (sum(X) > 0) {
  while (i < 3) {
    if (s < 10) {
      Y = X * 2;
      s = s + sum(Y);
    }
    i = i + 1;
  }
}
print(s);
`

// outermostLoopScope is the scope paper §4.2 gives every generic block of
// the program, found by walking the block tree with a stack of enclosing
// blocks: the blocks from the top-level block holding the outermost loop
// around the block (the block itself outside loops) to the end.
func outermostLoopScope(blocks []*hop.Block) map[*hop.Block][]*hop.Block {
	out := map[*hop.Block][]*hop.Block{}
	var walk func(bs, stack []*hop.Block)
	walk = func(bs, stack []*hop.Block) {
		for _, b := range bs {
			if b.Kind != dml.GenericBlock {
				walk(b.Then, append(stack, b))
				walk(b.Else, append(stack, b))
				walk(b.Body, append(stack, b))
				continue
			}
			anchor := b
			for _, enc := range stack {
				if enc.Kind == dml.WhileBlockKind || enc.Kind == dml.ForBlockKind {
					anchor = enc
					break
				}
			}
			for i, top := range blocks {
				hop.WalkBlocks([]*hop.Block{top}, func(x *hop.Block) {
					if x == anchor && out[b] == nil {
						out[b] = blocks[i:]
					}
				})
			}
		}
	}
	walk(blocks, nil)
	return out
}

// TestScopeAnchorsAtOutermostLoop: the scope of every generic block of
// MLogreg (which nests blocks in two loops) and of a block nested
// if -> while -> if starts at the top-level block holding the outermost
// enclosing loop and runs through the end of the program.
func TestScopeAnchorsAtOutermostLoop(t *testing.T) {
	_, _, mlogreg := setup(t, scripts.MLogreg(), 1_000_000, 100, 200)
	fs := hdfs.New()
	fs.PutDescriptor("/data/X", 1000, 10, 10_000, hdfs.BinaryBlock)
	prog, err := dml.Parse(nestedSrc)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, map[string]interface{}{"X": "/data/X"}).Compile(prog, nestedSrc)
	if err != nil {
		t.Fatal(err)
	}
	nested := lop.Select(hp, conf.DefaultCluster(), conf.NewResources(512*conf.MB, 2*conf.GB, hp.NumLeaf))
	deep := 0
	for _, plan := range []*lop.Plan{mlogreg, nested} {
		want := outermostLoopScope(plan.HopProgram.Blocks)
		for _, lb := range plan.Blocks {
			ctx := &rt.AdaptContext{Plan: plan, Block: lb}
			got, w := scope(ctx), want[lb.HopBlock]
			if len(w) == 0 || len(got) != len(w) || &got[0] != &w[0] {
				t.Fatalf("block %d: scope of %d blocks, want the last %d", lb.HopBlock.Index, len(got), len(w))
			}
			if lb.HopBlock.Parent != nil && lb.HopBlock.Parent.Parent != nil {
				deep++
			}
		}
	}
	if deep == 0 {
		t.Fatal("no generic block is nested two control blocks deep")
	}
	// The block nested if -> while -> if: its outermost loop is the while
	// inside the top-level if, so the scope starts at that if.
	for _, lb := range nested.Blocks {
		hb := lb.HopBlock
		if hb.Parent == nil || hb.Parent.Kind != dml.IfBlockKind {
			continue
		}
		loop := hb.Parent.Parent
		if loop == nil || loop.Kind != dml.WhileBlockKind || loop.Parent == nil || loop.Parent.Kind != dml.IfBlockKind {
			t.Fatalf("block %d is not nested if -> while -> if", hb.Index)
		}
		got := scope(&rt.AdaptContext{Plan: nested, Block: lb})
		if got[0] != loop.Parent || got[0] != hp.Blocks[1] || len(got) != len(hp.Blocks)-1 {
			t.Fatalf("block %d: the scope starts at block %v, want the top-level if", hb.Index, got[0].Kind)
		}
		return
	}
	t.Fatal("no generic block under an if inside the while")
}
