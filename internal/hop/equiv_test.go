package hop_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/rt"
	"elasticml/internal/verify"
)

// generated is one generated program as the equivalence oracles check it:
// its staged file system and the program.
type generated struct {
	name string
	fs   *hdfs.FS
	hp   *hop.Program
}

// generatedPrograms stages and compiles the streams `make verify-corpus`
// runs: 25 programs of the fuzz stream and 10 of the loop stream, seed 1.
func generatedPrograms(t *testing.T) []generated {
	t.Helper()
	var ps []verify.Program
	for i := 0; i < 25; i++ {
		ps = append(ps, verify.FuzzProgram(1, i))
	}
	for i := 0; i < 10; i++ {
		ps = append(ps, verify.FuzzLoopProgram(1, i))
	}
	out := make([]generated, 0, len(ps))
	for _, p := range ps {
		fs := hdfs.New()
		p.Setup(fs)
		prog, err := dml.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		hp, err := hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, generated{p.Name, fs, hp})
	}
	return out
}

// runMeta is the metadata of every variable p writes, plus each for
// loop's variable as an unknown scalar, as a run binds it.
func runMeta(p *hop.Program) hop.SymTab {
	meta := hop.WrittenMeta(p)
	hop.WalkBlocks(p.Blocks, func(b *hop.Block) {
		if b.Var != "" {
			meta[b.Var] = hop.VarMeta{}
		}
	})
	return meta
}

// sameBuild reports where two builds of the same thing differ: in whether
// they fail, or in their encoding. Both failing is agreement.
func sameBuild(a *hop.Program, aerr error, b *hop.Program, berr error) error {
	switch {
	case (aerr == nil) != (berr == nil):
		return fmt.Errorf("one build fails: %v / %v", aerr, berr)
	case aerr == nil && !bytes.Equal(hop.AppendKey(nil, a), hop.AppendKey(nil, b)):
		return errors.New("the builds encode differently")
	}
	return nil
}

// leaf is a one-block program of b, for sameBuild.
func leaf(b *hop.Block) *hop.Program { return &hop.Program{Blocks: []*hop.Block{b}, NumLeaf: 1} }

// TestResizeMatchesRebuildGenerated is the re-size oracle on generated
// programs: every leaf block recompiled against the metadata of the
// variables a run binds (runMeta), and every recompile of a value-mode run, encodes as the rebuild
// from the block's statements does, or both fail.
func TestResizeMatchesRebuildGenerated(t *testing.T) {
	leaves, recompiles := 0, 0
	for _, g := range generatedPrograms(t) {
		meta := runMeta(g.hp)
		for _, b := range g.hp.LeafBlocks() {
			nb, err := g.hp.Compiler().RecompileGeneric(b, meta, nil)
			rb, rerr := g.hp.Compiler().Fork(g.fs).Rebuild(b, meta)
			if d := sameBuild(leaf(nb), err, leaf(rb), rerr); d != nil {
				t.Errorf("%s block %d (lines %d-%d): recompile and rebuild disagree: %v", g.name, b.Index, b.FirstLine, b.LastLine, d)
			}
			leaves++
		}

		restore := hop.OnRecompile(func(c *hop.Compiler, b *hop.Block, vars hop.Vars, nb *hop.Block, _ bool) {
			recompiles++
			rb, err := c.Fork(c.FS).Rebuild(b, vars)
			if d := sameBuild(leaf(nb), nil, leaf(rb), err); d != nil {
				t.Errorf("%s run, block %d (lines %d-%d): recompile and rebuild disagree: %v", g.name, b.Index, b.FirstLine, b.LastLine, d)
			}
		})
		cc := conf.DefaultCluster()
		res := conf.NewResources(cc.MinHeap(), cc.MinHeap(), g.hp.NumLeaf)
		fs := g.fs.Clone()
		ip := rt.New(rt.ModeValue, fs, cc, res)
		err := ip.Run(lop.Select(g.hp, cc, res))
		restore()
		if err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
	if leaves == 0 || recompiles == 0 {
		t.Fatalf("checked %d leaf blocks and %d run recompiles; the oracle needs both", leaves, recompiles)
	}
	t.Logf("%d leaf blocks, %d run recompiles", leaves, recompiles)
}

// TestScopeLiveInSufficesGenerated is the live-in oracle on generated
// programs: a scope rebuilds from the metadata of its live-in variables
// alone (hop.LiveIn) as it does from the metadata of every variable a run
// binds (runMeta), or both fail. A scope is every suffix of the top-level
// block list, as the adapter rebuilds them, and of every branch and loop
// body, which as a program of its own reads what the blocks around it
// define.
func TestScopeLiveInSufficesGenerated(t *testing.T) {
	scopes := 0
	for _, g := range generatedPrograms(t) {
		full := runMeta(g.hp)
		lists := [][]*hop.Block{g.hp.Blocks}
		hop.WalkBlocks(g.hp.Blocks, func(b *hop.Block) {
			for _, l := range [][]*hop.Block{b.Then, b.Else, b.Body} {
				if len(l) > 0 {
					lists = append(lists, l)
				}
			}
		})
		for _, l := range lists {
			for i := range l {
				scope := l[i:]
				srcs, err := hop.Sources(scope)
				if err != nil {
					t.Fatal(err)
				}
				live := hop.SymTab{}
				for _, name := range hop.LiveIn(srcs) {
					if m, ok := full[name]; ok {
						live[name] = m
					}
				}
				a, aerr := g.hp.Compiler().RebuildScope(scope, full.Clone())
				b, berr := g.hp.Compiler().RebuildScope(scope, live)
				if d := sameBuild(a, aerr, b, berr); d != nil {
					t.Errorf("%s scope from line %d: full and live-in metadata disagree: %v", g.name, l[i].FirstLine, d)
				}
				scopes++
			}
		}
	}
	t.Logf("%d scopes", scopes)
}

// joinCases are hand-written programs whose joins differ from the
// whole-table merge when a write set misses a name: a nested for loop's
// variable, which the else-branch reads at its entry value, and names
// only one branch assigns, each with a known value. The last two need
// more than one trip to settle a loop's facts: a loop nested in a trial
// that stopped after its first join would keep a = 2x8 there, which the
// inner loop's second trip breaks, and a chain of three names settles
// only on the third join.
var joinCases = []verify.Program{
	{Name: "nested for variable", Source: `i = 5;
for (k in 1:2) {
  if (k > 1) {
    for (i in 1:3) { z = 1; }
    j = 6;
  } else {
    j = i + 1;
  }
  print(j);
}
`},
	{Name: "one-branch names", Source: `y = 1;
for (k in 1:2) {
  if (k > 1) { y = 3; v = 2; } else { w = 4; }
  while (k < 0) { u = 7; k = k + 1; }
  print(y + v + w + u);
}
`},
	{Name: "loop nested in a trial", Source: `X = matrix(1, rows=80, cols=8);
a = X[1:2,];
b = a;
for (i in 1:2) {
  c = t(a) %*% a;
  for (j in 1:2) { a = b; b = X; }
}
print(sum(c));
`},
	{Name: "chain of three", Source: `X = matrix(1, rows=80, cols=8);
a = X[1:2,];
b = a;
c = a;
while (sum(a) > 0) {
  d = t(a) %*% a;
  a = b;
  b = c;
  c = X;
}
print(sum(d));
`},
}

// TestJoinMatchesWholeTableMerge is the merge oracle: every join (an if's,
// or a loop's trial or kept body) that compiling, and rebuilding the whole
// scope of, the corpus, the generated streams of generatedPrograms and
// joinCases runs leaves the table that building each arm on its own copy
// of the entry table and merging the copies whole (hop.JoinReference)
// leaves. The reference builds in a fresh build, which keeps no loop's
// settled facts, so a nested loop that takes them must leave what
// settling afresh would.
func TestJoinMatchesWholeTableMerge(t *testing.T) {
	ps := append(verify.Corpus(), joinCases...)
	for i := 0; i < 25; i++ {
		ps = append(ps, verify.FuzzProgram(1, i))
	}
	for i := 0; i < 10; i++ {
		ps = append(ps, verify.FuzzLoopProgram(1, i))
	}
	var name string
	joins, inReference := 0, false
	restore := hop.OnJoin(func(c *hop.Compiler, sb *dml.StatementBlock, entry, out hop.SymTab) {
		if inReference {
			return // a join of the reference's own build
		}
		inReference = true
		defer func() { inReference = false }()
		joins++
		want, err := hop.JoinReference(c, sb, entry)
		if err != nil {
			t.Errorf("%s lines %d-%d: the reference fails: %v", name, sb.FirstLine, sb.LastLine, err)
			return
		}
		if got, want := fmt.Sprint(out), fmt.Sprint(want); got != want {
			t.Errorf("%s lines %d-%d: the join leaves\n%s\nthe whole-table merge\n%s", name, sb.FirstLine, sb.LastLine, got, want)
		}
	})
	defer restore()
	for _, p := range ps {
		name = p.Name
		fs := hdfs.New()
		if p.Setup != nil {
			p.Setup(fs)
		}
		prog, err := dml.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		hp, err := hop.NewCompiler(fs, p.Params).Compile(prog, p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, err := hp.Compiler().RebuildScope(hp.Blocks, runMeta(hp)); err != nil {
			t.Fatalf("%s scope: %v", p.Name, err)
		}
	}
	if joins == 0 {
		t.Fatal("no join ran")
	}
	t.Logf("%d joins", joins)
}
