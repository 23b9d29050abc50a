package adapt

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/hop"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// liveInCheck rebuilds the scope of every consult twice before handing
// the consult on: from the metadata of every variable of the interpreter
// and from that of the variables live at the scope's start (hop.LiveIn).
// The adapter keys and rebuilds from the latter alone, so both must build
// the same program, or fail alike.
type liveInCheck struct {
	t        *testing.T
	problem  string
	ip       *rt.Interp
	inner    rt.Adapter
	consults int
}

func (c *liveInCheck) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	blocks := scope(ctx)
	full := snapshot(c.ip, ctx.Vars)
	part := hop.SymTab{}
	for _, name := range hop.LiveIn(mustSources(c.t, blocks)) {
		if m, ok := full[name]; ok {
			part[name] = m
		}
	}
	build := func(meta hop.SymTab) ([]byte, error) {
		// A fork draws hop IDs without advancing the run's compiler.
		prog, err := ctx.Compiler.Fork(ctx.Compiler.FS).RebuildScope(blocks, meta)
		if err != nil {
			return nil, err
		}
		return hop.AppendKey(nil, prog), nil
	}
	want, wantErr := build(full)
	got, err := build(part)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		c.t.Errorf("%s consult %d (scope from line %d): the live-in snapshot built a different program (error %v; the full one's %v)",
			c.problem, c.consults, blocks[0].FirstLine, err, wantErr)
	}
	c.consults++
	return c.inner.Adapt(ctx)
}

// checkLiveIn runs p from its optimized configuration under liveInCheck
// and returns the number of consults.
func checkLiveIn(t *testing.T, p paperProblem, tweak func(*Adapter, *rt.Interp)) int {
	c := &liveInCheck{t: t, problem: p.String()}
	runProblem(t, p, optimized(t, p), tweak, func(a *Adapter, ip *rt.Interp) rt.Adapter {
		c.inner, c.ip = a, ip
		return c
	})
	return c.consults
}

// loseNodeMidRun fails a node halfway through p's healthy run.
func loseNodeMidRun(t *testing.T, p paperProblem) func(*Adapter, *rt.Interp) {
	healthy, _ := runProblem(t, p, optimized(t, p), nil, nil)
	return func(_ *Adapter, ip *rt.Interp) {
		ip.Faults = fault.MustInjector(fault.Plan{Seed: 1,
			NodeFailures: []fault.NodeFailure{{Node: 0, At: healthy.SimTime / 2}}})
	}
}

// TestScopeLiveInSuffices is the soundness gate of the consult key: at
// every consult of the paper grid, of the node-loss run and of a loop
// whose only read of W is the left-indexed update W[, 1] = …, a scope
// rebuilt from the live-in variables' metadata alone equals one rebuilt
// from every variable's.
func TestScopeLiveInSuffices(t *testing.T) {
	consults := 0
	for _, p := range paperGrid() {
		consults += checkLiveIn(t, p, nil)
	}
	if consults != 261 {
		t.Errorf("grid: %d consults, want 261", consults)
	}
	p := paperProblem{scripts.MLogreg(), datagen.New("L", 100, 1.0)}
	if n := checkLiveIn(t, p, loseNodeMidRun(t, p)); n != 33 {
		t.Errorf("%s losing a node: %d consults, want 33", p, n)
	}
	update := paperProblem{scripts.Spec{Name: "LeftIndexUpdate", Params: map[string]interface{}{"X": datagen.PathX},
		Source: `X = read($X);
W = matrix(0, rows=ncol(X), cols=2);
i = 0;
while (i < 4) {
  W[, 1] = t(X) %*% rowSums(X);
  s = sum(W);
  i = i + 1;
}
print(s);
`}, datagen.New("L", 100, 1.0)}
	if n := checkLiveIn(t, update, loseNodeMidRun(t, update)); n != 1 {
		t.Errorf("%s losing a node: %d consults, want 1", update, n)
	}
}

// TestConsultKeyCoversVarMeta: a live-in name's absence and every field of
// its hop.VarMeta reach the consult key, floats by their bits (-0 is not
// 0).
func TestConsultKeyCoversVarMeta(t *testing.T) {
	key := func(meta hop.SymTab) string { return string(appendMeta(nil, meta, []string{"v"})) }
	zero := key(hop.SymTab{"v": {}})
	if key(hop.SymTab{}) == zero {
		t.Error("an unbound name keys like a zero VarMeta")
	}
	typ := reflect.TypeOf(hop.VarMeta{})
	for i := 0; i < typ.NumField(); i++ {
		var m hop.VarMeta
		switch f := reflect.ValueOf(&m).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(math.Copysign(0, -1))
		case reflect.String:
			f.SetString("s")
		default:
			t.Fatalf("VarMeta.%s: %s fields are not keyed", typ.Field(i).Name, f.Kind())
		}
		if key(hop.SymTab{"v": m}) == zero {
			t.Errorf("VarMeta.%s does not reach the consult key", typ.Field(i).Name)
		}
	}
}
