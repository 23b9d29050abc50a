package workload

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Batch Run knows its whole job list up front, so it prepares the next jobs
// ahead of the event loop, on a pool of GOMAXPROCS workers, by the solve
// that a daemon session's Prepare runs; each job's first placement commits
// the result by the same rules as a prepared daemon submission. The loop
// makes every claim — which jobs, in which order, which of them a worker
// prepares — from its own state alone, so what is prepared and every
// counter are the same at any GOMAXPROCS, and the pool only decides where
// the work runs. The loop waits only for a worker that is mid-solve: it
// solves its own claim if no worker has started it, and a worker that
// finishes a claim yields to the loop it may have woken.

// prefetchWindow bounds how many jobs batch Run has claimed but not yet
// placed. It is a constant, not a multiple of the worker count, for the
// reason above.
const prefetchWindow = 8

// prefetcher is batch Run's lookahead window and its worker pool.
type prefetcher struct {
	// order lists the batch's job indices by (arrival, index), the order
	// of their first placements; order[next] is the next job to claim.
	order []int
	next  int
	// open counts claims not yet consumed by a placement or dropped by
	// terminate.
	open int
	// claimed holds every key a worker was handed this run: a later job
	// under the same key waits for the plan-cache entry instead.
	claimed map[string]bool
	// work carries dispatched claims to the workers. Its buffer holds a
	// whole window, so the loop never blocks on a send.
	work chan *claim
	wg   sync.WaitGroup
}

// claim is one claimed job: the identity the loop read off it, which a
// worker or the loop may prepare. done is nil for a bare identity;
// otherwise it closes once whoever took the claim is through, and id is
// then the prepared identity, or nil if solve failed — nothing prepared,
// as for a failed Prepare.
type claim struct {
	id    *identity
	done  chan struct{}
	taken atomic.Bool
}

// solve prepares a dispatched claim unless a worker or the loop has taken
// it already, and reports whether it did.
func (c *claim) solve(s *Service) bool {
	if c.taken.Swap(true) {
		return false
	}
	if s.solve(c.id) != nil {
		c.id = nil
	}
	close(c.done)
	return true
}

// startPrefetch starts the window over the jobs from index first on. The
// function it returns stops the pool and returns once every worker has
// exited.
func (s *Service) startPrefetch(first int) (stop func()) {
	pf := &prefetcher{claimed: map[string]bool{}, work: make(chan *claim, prefetchWindow)}
	for i := first; i < len(s.jobs); i++ {
		pf.order = append(pf.order, i)
	}
	sort.SliceStable(pf.order, func(a, b int) bool {
		return s.jobs[pf.order[a]].spec.Arrival < s.jobs[pf.order[b]].spec.Arrival
	})
	workers := runtime.GOMAXPROCS(0)
	pf.wg.Add(workers)
	for range workers {
		go func() {
			defer pf.wg.Done()
			for c := range pf.work {
				// Closing done readied the loop, if it waits on c, on this
				// worker's P, where it would run only once the worker next
				// blocks or is preempted: hand it the P now.
				if c.solve(s) {
					runtime.Gosched()
				}
			}
		}()
	}
	s.pf = pf
	s.claimAhead()
	return func() {
		close(pf.work)
		pf.wg.Wait()
		s.pf = nil
	}
}

// claimAhead tops the window up, on the loop, in (arrival, index) order.
// A claim identifies the job, as its first placement would (a value-mode
// Setup runs here), and keys it under the live view; it goes to a worker
// only if that key is neither in the plan cache nor claimed before, and
// otherwise carries the bare identity. A job that does not identify is
// left for its placement to fail.
func (s *Service) claimAhead() {
	pf, opts := s.pf, s.optOpts()
	for pf.open < prefetchWindow && pf.next < len(pf.order) {
		j := s.jobs[pf.order[pf.next]]
		pf.next++
		if j == nil || j.id != nil || j.spec.prep != nil {
			continue
		}
		id, err := identify(j.spec)
		if err != nil {
			continue
		}
		c := &claim{id: id}
		if key := id.cacheKey(s.live(), opts); !s.cache.Has(key) && !pf.claimed[key] {
			pf.claimed[key] = true
			c.done = make(chan struct{})
			pf.work <- c
		}
		j.claim = c
		pf.open++
	}
}

// takeClaim is a job's first placement attempt under batch Run: it waits
// for the job's claim, if it has one — solving it itself if no worker has
// started it — hands the identity to place as spec.prep, and tops the
// window up.
func (s *Service) takeClaim(j *job) {
	if c := j.claim; c != nil {
		if c.done != nil && !c.solve(s) {
			<-c.done
		}
		j.spec.prep = c.id
		s.dropClaim(j)
	}
	s.claimAhead()
}

// dropClaim releases a job's slot in the window.
func (s *Service) dropClaim(j *job) {
	if j.claim != nil {
		j.claim = nil
		s.pf.open--
	}
}
