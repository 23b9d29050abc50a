package main

import (
	"fmt"
	"math/rand"

	"elasticml/internal/conf"
	"elasticml/internal/datagen"
	"elasticml/internal/fault"
	"elasticml/internal/scripts"
	"elasticml/internal/server"
	"elasticml/internal/workload"
)

// The benchmark generates every input itself, from the seed alone. Streams
// are stratified: they are dealt from decks that hold each kind of job
// once, and only the order and the incidental fields (tenant, column
// count) come from the seed. Two seeds therefore do the same mix of work
// in a different order, which is what lets runs with different seeds be
// compared at all.

// problem is one offline optimization problem of opt_sweep.
type problem struct {
	Script scripts.Spec
	Scen   datagen.Scenario
}

func (p problem) String() string {
	return fmt.Sprintf("%s %s %s", p.Script.Name, p.Scen.Size, p.Scen.ShapeName())
}

// unstableProblems are left out of the sweep because their outcome is not
// a function of their input at the commit this benchmark was written at, so
// no check of an op on them could hold. For GLM XL dense100,
// cost.ProgramCost of one and the same plan returns 46685.2 s on some calls
// and 46845.2 s on others, and opt.Optimize reports either.
var unstableProblems = map[string]bool{"GLM XL dense100": true}

// sweepProblems returns the paper's evaluation grid in canonical order:
// 5 programs x 5 sizes x 4 shapes = 100 problems, less the unstable ones.
func sweepProblems() []problem {
	var out []problem
	for _, sp := range scripts.All() {
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				p := problem{Script: sp, Scen: datagen.New(size, sh.Cols, sh.Sparsity)}
				if !unstableProblems[p.String()] {
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// sweepOrder returns the order in which sweep number k visits n problems.
func sweepOrder(seed int64, k, n int) []int {
	return rand.New(rand.NewSource(seed*1000003 + int64(k))).Perm(n)
}

const tenants = 8

// hotScripts are the three cheap programs serve_hot draws from.
var hotScripts = []string{"LinregDS", "LinregCG", "L2SVM"}

// Column range of serve_hot: 3 scripts x 100 column counts = 300 distinct
// plan-cache keys, well inside the default cache (16 shards x 64 entries).
const hotColsLo, hotColsN = 50, 100

// coldScripts x coldSizes is the deck of serve_cold.
var (
	coldScripts = []string{"LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM"}
	coldSizes   = []string{"XS", "S", "M"}
)

// Column range of serve_cold. Every job of a run gets its own column count
// from [coldColsLo, coldColsLo+coldColsN), so every plan-cache key is new;
// warm-up jobs use columns from coldWarmCols up, which no timed job has.
const coldColsLo, coldColsN, coldWarmCols = 200, 8192, 20000

// jobStream deals an endless, seeded sequence of daemon jobs.
type jobStream struct {
	r    *rand.Rand
	deal func(r *rand.Rand, n int) []server.JobSpecWire
	deck []server.JobSpecWire
	n    int
}

func (s *jobStream) next() server.JobSpecWire {
	if len(s.deck) == 0 {
		s.deck = s.deal(s.r, s.n)
	}
	j := s.deck[0]
	s.deck = s.deck[1:]
	s.n++
	return j
}

func (s *jobStream) take(n int) []server.JobSpecWire {
	out := make([]server.JobSpecWire, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func tenantName(r *rand.Rand) string { return fmt.Sprintf("tenant-%d", r.Intn(tenants)) }

// hotStream repeats the 300 keys of serve_hot, each deck in a new order.
func hotStream(seed int64) *jobStream {
	return &jobStream{r: rand.New(rand.NewSource(seed)), deal: func(r *rand.Rand, _ int) []server.JobSpecWire {
		deck := make([]server.JobSpecWire, 0, len(hotScripts)*hotColsN)
		for _, sc := range hotScripts {
			for c := 0; c < hotColsN; c++ {
				deck = append(deck, server.JobSpecWire{
					Tenant: tenantName(r), Script: sc, Size: "XS", Cols: int64(hotColsLo + c), Sparsity: 1,
				})
			}
		}
		r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		return deck
	}}
}

// coldStream deals decks of 15 (script, size) pairs; job i of the stream
// gets column count colsLo + (offset + 4099*i) mod colsN, which visits
// every value of the range once before any repeats.
func coldStream(seed int64, colsLo, colsN int) *jobStream {
	offset := int(rand.New(rand.NewSource(seed)).Int31n(int32(colsN)))
	return &jobStream{r: rand.New(rand.NewSource(seed + 1)), deal: func(r *rand.Rand, n int) []server.JobSpecWire {
		deck := make([]server.JobSpecWire, 0, len(coldScripts)*len(coldSizes))
		for _, sc := range coldScripts {
			for _, size := range coldSizes {
				deck = append(deck, server.JobSpecWire{Tenant: tenantName(r), Script: sc, Size: size, Sparsity: 1})
			}
		}
		r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for i := range deck {
			deck[i].Cols = int64(colsLo + (offset+4099*(n+i))%colsN)
		}
		return deck
	}}
}

// churnCluster is the contended cluster of batch_churn: two 1 GB nodes, so
// a 24-job trace of 2-3 container jobs queues, narrows and resizes.
func churnCluster() conf.Cluster {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	cc.MemPerNode = 1 * conf.GB
	cc.MaxAlloc = 1 * conf.GB
	return cc
}

// churnJobs is the number of jobs of one trace.
const churnJobs = 24

// churnTrace is one batch_churn input: a bursty trace of malleable
// mini-batch jobs plus one straggler episode and one node flap.
type churnTrace struct {
	Jobs  []workload.JobSpec
	Chaos fault.ChaosPlan
}

// genChurnTrace builds trace number k of a seed. Every trace holds the
// same 24 jobs in a seeded order: each (program, scenario, desired width)
// combination once, and each (program, desired width) once more on the
// smallest scenario; all run at min 1 / max 4 containers, 4-6 epochs of
// 3-5 batches. Jobs arrive in bursts of 2-4 a quarter second apart, bursts
// 25-125 simulated seconds apart. What a trace costs to schedule therefore
// varies with the order, not with the draw.
func genChurnTrace(seed int64, k int) churnTrace {
	r := rand.New(rand.NewSource(seed*7919 + int64(k)))
	progs := scripts.Minibatch()
	scens := []datagen.Scenario{
		datagen.New("XS", 1000, 1.0),
		datagen.New("S", 1000, 1.0),
		datagen.New("XS", 100, 0.01),
	}
	// The epoch structure is tied to the combination, not drawn, so that
	// every trace holds the same total work.
	type combo struct{ prog, scen, desired, epochs, batches int }
	var deck []combo
	for p := range progs {
		for d := 2; d <= 3; d++ {
			for _, s := range []int{0, 1, 2, 0} {
				n := len(deck)
				deck = append(deck, combo{p, s, d, 4 + n%3, 3 + n/3%3})
			}
		}
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })

	var t churnTrace
	arrival := 0.0
	for len(t.Jobs) < len(deck) {
		burst := 2 + r.Intn(3)
		for b := 0; b < burst && len(t.Jobs) < len(deck); b++ {
			i := len(t.Jobs)
			c := deck[i]
			spec := progs[c.prog]
			params := make(map[string]interface{}, len(spec.Params)+2)
			for k, v := range spec.Params {
				params[k] = v
			}
			params["epochs"] = float64(c.epochs)
			params["batches"] = float64(c.batches)
			spec.Params = params
			t.Jobs = append(t.Jobs, workload.JobSpec{
				Tenant:   fmt.Sprintf("tenant-%02d", i),
				Script:   spec,
				Scenario: scens[c.scen],
				Arrival:  arrival + float64(b)*0.25,
				Elastic:  workload.ElasticSpec{MinContainers: 1, DesiredContainers: c.desired, MaxContainers: 4},
			})
		}
		arrival += float64(25000+r.Intn(100000)) / 1000
	}
	t.Chaos = fault.ChaosPlan{
		Seed:      seed,
		SlowNodes: []fault.SlowNode{{Node: 0, At: 10 + float64(r.Intn(20)), Factor: 3, Duration: 40}},
		Flaps:     []fault.Flap{{Node: 1, At: 60 + float64(r.Intn(30)), RestoreAfter: 20}},
	}
	return t
}

// churnPolicies are the schedulers every trace runs under, in op order.
var churnPolicies = []workload.Policy{workload.PolicyFIFO, workload.PolicyFair, workload.PolicyRegret}

// churnOptions are the service options of one batch_churn op.
func churnOptions(t churnTrace, p workload.Policy) workload.Options {
	o := workload.DefaultOptions()
	o.Policy = p
	o.Elastic.Tick = 5
	o.Chaos = t.Chaos
	return o
}
