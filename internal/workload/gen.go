package workload

import (
	"fmt"
	"math"
	"math/rand"

	"elasticml/internal/datagen"
	"elasticml/internal/scripts"
)

// genPrograms is the program pool of the seeded generator. It is kept
// deliberately small (three of the five evaluation programs) so realistic
// tenant mixes repeat programs and exercise the shared plan cache.
func genPrograms() []scripts.Spec {
	return []scripts.Spec{scripts.LinregDS(), scripts.LinregCG(), scripts.L2SVM()}
}

// genScenarios is the data-scenario pool of the seeded generator: small
// scenarios only, so per-tenant simulation stays cheap.
func genScenarios() []datagen.Scenario {
	return []datagen.Scenario{
		datagen.New("XS", 1000, 1.0),
		datagen.New("S", 1000, 1.0),
		datagen.New("XS", 100, 0.01),
	}
}

// tenantName names the i-th job of a trace that leaves it unnamed: the
// generators, a run description's job list and Submit all name it so.
func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// Generate builds a deterministic n-tenant workload from a seed: programs
// and scenarios are drawn uniformly from small pools, and inter-arrival
// gaps are exponential with the given mean (seconds), rounded to
// milliseconds so reports print stably.
func Generate(seed int64, n int, meanGap float64) []JobSpec {
	if meanGap <= 0 {
		meanGap = 10
	}
	r := rand.New(rand.NewSource(seed))
	progs := genPrograms()
	scens := genScenarios()
	jobs := make([]JobSpec, n)
	arrival := 0.0
	for i := range jobs {
		gap := r.ExpFloat64() * meanGap
		arrival += math.Round(gap*1000) / 1000
		jobs[i] = JobSpec{
			Tenant:   tenantName(i),
			Script:   progs[r.Intn(len(progs))],
			Scenario: scens[r.Intn(len(scens))],
			Arrival:  arrival,
		}
	}
	return jobs
}

// GenerateSkewedBurst builds a deterministic bursty, elasticity-annotated
// workload: jobs arrive in tight bursts (2-4 tenants a quarter second
// apart) separated by long idle gaps, and every job is malleable —
// MinContainers 1, DesiredContainers 2-3, MaxContainers 4. On a small
// cluster a rigid FIFO admission head-blocks each burst at full desired
// width, while width-flexible policies admit narrow during the burst and
// grow in the gaps — the trace the elastic bench sweep compares policies
// on.
func GenerateSkewedBurst(seed int64, n int) []JobSpec {
	progs := genPrograms()
	return generateBursts(seed, n, func(r *rand.Rand) scripts.Spec {
		return progs[r.Intn(len(progs))]
	})
}

// GenerateMinibatch builds a deterministic bursty workload over the
// iterative mini-batch family (MinibatchLR, MinibatchLinreg, MLP2): every
// job is malleable and epoch-structured (4-6 epochs, 3-5 batches), so
// elasticity decisions land on epoch/batch boundaries — grows between
// epochs, shrinks snapping to the last completed batch. Paired with a
// straggler or correlated-failure chaos plan this is the trace the
// minibatch bench sweep compares policies on.
func GenerateMinibatch(seed int64, n int) []JobSpec {
	progs := scripts.Minibatch()
	return generateBursts(seed, n, func(r *rand.Rand) scripts.Spec {
		spec := progs[r.Intn(len(progs))]
		return withEpochs(spec, 4+r.Intn(3), 3+r.Intn(3))
	})
}

// generateBursts is the loop both burst generators share: bursts of 2-4
// malleable jobs a quarter second apart, separated by idle gaps. script
// draws each job's program before its scenario and desired width are
// drawn, so each generator keeps its random-draw order.
func generateBursts(seed int64, n int, script func(*rand.Rand) scripts.Spec) []JobSpec {
	r := rand.New(rand.NewSource(seed))
	scens := genScenarios()
	jobs := make([]JobSpec, 0, n)
	arrival := 0.0
	for len(jobs) < n {
		burst := 2 + r.Intn(3)
		for k := 0; k < burst && len(jobs) < n; k++ {
			jobs = append(jobs, JobSpec{
				Tenant:   tenantName(len(jobs)),
				Script:   script(r),
				Scenario: scens[r.Intn(len(scens))],
				Arrival:  arrival + float64(k)*0.25,
				Elastic: ElasticSpec{
					MinContainers:     1,
					DesiredContainers: 2 + r.Intn(2),
					MaxContainers:     4,
				},
			})
		}
		gap := 25 + r.ExpFloat64()*50
		arrival += math.Round(gap*1000) / 1000
	}
	return jobs
}
