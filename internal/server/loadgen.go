// The load generator drives a running daemon over N concurrent sessions
// with a seeded request mix — submits, status probes, cancels, and pings —
// in either closed-loop (next request after the previous reply) or
// open-loop (fixed per-session pacing) mode, and reports wall-clock
// request latency percentiles plus shed/error counts. It is both the
// engine behind cmd/elastic-load and the harness the e2e test uses to
// push ≥10k requests through the server.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Addr is the daemon's TCP address.
	Addr string
	// Sessions is the concurrent connection count (default 4).
	Sessions int
	// Requests is the total request budget across all sessions
	// (default 1000).
	Requests int
	// RatePerSec paces each session open-loop; 0 runs closed-loop.
	RatePerSec float64
	// Tenants is the tenant name pool size (default 8).
	Tenants int
	// Seed drives the per-session request mix.
	Seed int64
	// SubmitEvery makes one request in N a job submission; the rest are
	// pings and status probes (default 10). 1 submits on every request.
	SubmitEvery int
	// CancelFraction cancels roughly one in N accepted jobs (default 16;
	// a negative value disables cancels).
	CancelFraction int
	// WaitResults blocks at the end until every accepted job's result
	// frame has arrived.
	WaitResults bool
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.SubmitEvery <= 0 {
		c.SubmitEvery = 10
	}
	if c.CancelFraction == 0 {
		c.CancelFraction = 16
	}
	return c
}

// LoadStats summarizes one run.
type LoadStats struct {
	Requests int `json:"requests"`
	Pings    int `json:"pings"`
	Statuses int `json:"statuses"`
	Submits  int `json:"submits"`
	Cancels  int `json:"cancels"`

	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Errors   int `json:"errors"`
	Results  int `json:"results"`

	Elapsed time.Duration `json:"elapsed"`
	P50     time.Duration `json:"p50"`
	P95     time.Duration `json:"p95"`
	P99     time.Duration `json:"p99"`
	Max     time.Duration `json:"max"`
}

// String renders the human-readable summary cmd/elastic-load prints.
func (s *LoadStats) String() string {
	return fmt.Sprintf(
		"requests %d (ping %d, status %d, submit %d, cancel %d) in %v\n"+
			"accepted %d  shed %d  errors %d  results %d\n"+
			"latency p50 %v  p95 %v  p99 %v  max %v",
		s.Requests, s.Pings, s.Statuses, s.Submits, s.Cancels, s.Elapsed.Round(time.Millisecond),
		s.Accepted, s.Shed, s.Errors, s.Results,
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// loadScripts is the request-mix script pool (cheap XS scenarios keep the
// simulated work per submission small).
var loadScripts = []string{"LinregDS", "LinregCG", "L2SVM"}

// RunLoad executes one load run and merges per-session stats.
func RunLoad(cfg LoadConfig) (*LoadStats, error) {
	cfg = cfg.withDefaults()
	per := cfg.Requests / cfg.Sessions
	extra := cfg.Requests % cfg.Sessions

	type sessOut struct {
		stats LoadStats
		lats  []time.Duration
		err   error
	}
	outs := make([]sessOut, cfg.Sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		n := per
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			outs[i].stats, outs[i].lats, outs[i].err = runSession(cfg, i, n)
		}(i, n)
	}
	wg.Wait()

	total := &LoadStats{}
	var lats []time.Duration
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("session %d: %w", i, outs[i].err)
		}
		o := &outs[i].stats
		total.Requests += o.Requests
		total.Pings += o.Pings
		total.Statuses += o.Statuses
		total.Submits += o.Submits
		total.Cancels += o.Cancels
		total.Accepted += o.Accepted
		total.Shed += o.Shed
		total.Errors += o.Errors
		total.Results += o.Results
		lats = append(lats, outs[i].lats...)
	}
	total.Elapsed = time.Since(start)
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	if n := len(lats); n > 0 {
		total.P50 = lats[n/2]
		total.P95 = lats[n*95/100]
		total.P99 = lats[n*99/100]
		total.Max = lats[n-1]
	}
	return total, nil
}

// runSession drives one connection through its request budget.
func runSession(cfg LoadConfig, idx, budget int) (LoadStats, []time.Duration, error) {
	var st LoadStats
	cl, err := Dial(cfg.Addr)
	if err != nil {
		return st, nil, err
	}
	defer cl.Close()

	r := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7919))
	lats := make([]time.Duration, 0, budget)
	var jobs []uint32
	var pendingResults []<-chan *JobResult
	var tick <-chan time.Time
	if cfg.RatePerSec > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.RatePerSec))
		defer t.Stop()
		tick = t.C
	}

	for i := 0; i < budget; i++ {
		if tick != nil {
			<-tick
		}
		start := time.Now()
		cancel := false
		switch {
		case i%cfg.SubmitEvery == 0:
			st.Submits++
			spec := JobSpecWire{
				Tenant:   fmt.Sprintf("t%d", r.Intn(cfg.Tenants)),
				Script:   loadScripts[r.Intn(len(loadScripts))],
				Size:     "XS",
				Cols:     int64(50 + r.Intn(100)),
				Sparsity: 1.0,
			}
			job, _, resCh, err := cl.Submit(spec)
			switch {
			case err == nil:
				st.Accepted++
				jobs = append(jobs, job)
				pendingResults = append(pendingResults, resCh)
				cancel = cfg.CancelFraction > 0 && r.Intn(cfg.CancelFraction) == 0
			case errors.Is(err, ErrOverloaded):
				st.Shed++
			default:
				st.Errors++
			}
		case len(jobs) > 0 && i%3 == 0:
			st.Statuses++
			if _, err := cl.Status(jobs[r.Intn(len(jobs))]); err != nil && !errors.Is(err, ErrOverloaded) {
				st.Errors++
			} else if errors.Is(err, ErrOverloaded) {
				st.Shed++
			}
		default:
			st.Pings++
			if err := cl.Ping(); err != nil {
				if errors.Is(err, ErrOverloaded) {
					st.Shed++
				} else {
					st.Errors++
				}
			}
		}
		st.Requests++
		lats = append(lats, time.Since(start))
		if cancel {
			// The cancel is a request of its own, with its own sample.
			start = time.Now()
			st.Cancels++
			if _, err := cl.Cancel(jobs[len(jobs)-1]); err != nil {
				st.Errors++
			}
			st.Requests++
			lats = append(lats, time.Since(start))
		}
	}

	if cfg.WaitResults {
		for _, ch := range pendingResults {
			if res, ok := <-ch; ok && res != nil {
				st.Results++
			}
		}
	}
	return st, lats, nil
}
