// Malleable jobs and the scheduling policies that drive them.
//
// A job's ElasticSpec declares how many containers it can usefully hold
// (min/desired/max, resized in Step increments). A policy is a value: pure
// functions from a read-only snapshot of one job to its admission width and
// to the width it should hold while running. After every event batch's
// admission, reconcile books the difference between desired and allocated
// widths at the job's next resize point — a block boundary, an epoch
// boundary for epoch-job grows, any instant for epoch-job shrinks — and
// applyResize delivers it through the same plan / snap / start mechanisms
// admission and failure recovery use (lifecycle.go), so the plan always
// matches the current allocation and partial progress past the last
// boundary is re-done, exactly like a checkpoint restart.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"elasticml/internal/conf"
	"elasticml/internal/obs"
	"elasticml/internal/opt"
)

// ElasticSpec declares one job's malleability bounds. The zero value
// normalizes to a rigid single-container job (min = desired = max = 1),
// which behaves exactly like the pre-elasticity service.
type ElasticSpec struct {
	// MinContainers is the width floor the job needs to make progress.
	MinContainers int
	// DesiredContainers is the width the job asks for at admission.
	DesiredContainers int
	// MaxContainers bounds opportunistic growth.
	MaxContainers int
	// Step is the width increment of a single grow/shrink decision
	// (default 1).
	Step int
}

// normalized fills the zero value and repairs ordering so that
// 1 <= Min <= Desired <= Max and Step >= 1.
func (e ElasticSpec) normalized() ElasticSpec {
	if e.MinContainers < 1 {
		e.MinContainers = 1
	}
	if e.DesiredContainers < e.MinContainers {
		e.DesiredContainers = e.MinContainers
	}
	if e.MaxContainers < e.DesiredContainers {
		e.MaxContainers = e.DesiredContainers
	}
	if e.Step < 1 {
		e.Step = 1
	}
	return e
}

// validate rejects specs that are contradictions rather than omissions.
func (e ElasticSpec) validate() error {
	if e.MinContainers < 0 || e.DesiredContainers < 0 || e.MaxContainers < 0 || e.Step < 0 {
		return fmt.Errorf("elastic spec has a negative field: %+v", e)
	}
	if e.MaxContainers > 0 && e.MinContainers > e.MaxContainers {
		return fmt.Errorf("elastic spec min %d exceeds max %d", e.MinContainers, e.MaxContainers)
	}
	return nil
}

// rigid reports whether the normalized spec pins the job to one container.
func (e ElasticSpec) rigid() bool { return e.MaxContainers <= 1 }

// Policy selects the scheduling policy for admission widths and mid-run
// grow/shrink decisions.
type Policy int

const (
	// PolicyFIFO is the pre-elasticity behavior: jobs are admitted at their
	// desired width in arrival order, the queue head blocks the tail, and
	// running jobs are never resized.
	PolicyFIFO Policy = iota
	// PolicyFair keeps widths proportional to the number of active tenants:
	// admission targets the fair share (capacity / active jobs), jobs
	// voluntarily narrow down to their minimum to enter a full cluster, the
	// widest over-share job shrinks when the queue is blocked, and the
	// furthest-below-share job grows when capacity frees.
	PolicyFair
	// PolicyRegret is an Ease.ml-style regret-minimizing scheduler: queue
	// delay is pure regret, so jobs narrow to their minimum to start as
	// early as possible and the queue is never head-blocked (bypass
	// admission); freed capacity goes to the job with the highest marginal
	// speedup per container, and structural shrink takes from the job that
	// loses the least.
	PolicyRegret
)

// String returns the name of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyFair:
		return "fair"
	case PolicyRegret:
		return "regret"
	}
	return "fifo"
}

// ParsePolicy parses a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fifo":
		return PolicyFIFO, nil
	case "fair", "fair-share":
		return PolicyFair, nil
	case "regret", "regret-min", "easeml":
		return PolicyRegret, nil
	}
	return PolicyFIFO, fmt.Errorf("workload: unknown policy %q (want fifo, fair, or regret)", s)
}

// MarshalText and UnmarshalText make the policy's name its encoding, in run
// descriptions and the op log alike.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Policy) UnmarshalText(b []byte) (err error) {
	*p, err = ParsePolicy(string(b))
	return err
}

// ElasticOptions tune the malleability machinery.
type ElasticOptions struct {
	// Tick, when positive, fires a periodic elasticity decision event every
	// Tick simulated seconds while jobs remain active, so grow/shrink
	// decisions are not tied solely to arrivals, departures, and failures.
	// 0 disables the tick (the default, and the pre-elasticity behavior);
	// any other value must be at least minTick.
	Tick float64 `json:"tick"`
}

// minTick is the shortest periodic tick New accepts, in simulated seconds.
// Each tick is one more event while any job is resident, so a tick far
// below every job's run time makes a run spin through millions of no-op
// steps and stalls a batch run or the sequencer every daemon tenant
// shares.
const minTick = 1

// ErrBadTick reports an elastic tick that is negative or positive but
// below minTick.
var ErrBadTick = errors.New("workload: elastic.tick must be 0 (off) or at least 1 simulated second")

func (e ElasticOptions) validate() error {
	if e.Tick != 0 && !(e.Tick >= minTick) {
		return fmt.Errorf("%w, got %g", ErrBadTick, e.Tick)
	}
	return nil
}

const (
	// alpha is the marginal speedup of each container beyond the first: a
	// w-wide job runs speedup(w) = 1 + alpha*(w-1) times faster than at
	// width 1. Sub-linear, so width has diminishing returns and the
	// policies face a real tradeoff.
	alpha float64 = 0.7
	// resizeCharge is the simulated seconds charged to a job at every
	// applied width change — the §5 re-optimization plus container
	// negotiation overhead (like reoptCharge).
	resizeCharge float64 = 1
)

// speedup maps a width onto its execution speedup over width 1.
func speedup(w int) float64 {
	if w <= 1 {
		return 1
	}
	return 1 + alpha*float64(w-1)
}

// tenantView is the read-only snapshot of one job that a policy decides
// from. Policies see nothing else, so a decision is a pure function of it.
type tenantView struct {
	spec  ElasticSpec
	width int // containers held; 0 for a job at admission
	// capW is how many containers of the job's size the live cluster could
	// hold in total if it were empty.
	capW    int
	active  int     // tenants running or queued
	blocked bool    // the admission queue is non-empty
	rem     float64 // remaining work in width-1 seconds
}

// policy is a scheduling policy as a value, built once by newPolicy: two
// admission switches and two pure functions of a tenantView. The zero value
// is FIFO.
type policy struct {
	// stepDown lets an admission narrow below its target width to enter a
	// full cluster rather than wait for the full target.
	stepDown bool
	// bypass lets a job that cannot be admitted right now be skipped over
	// instead of blocking the queue tail.
	bypass bool
	// admitCap bounds the admission width beyond the spec's own bounds
	// (nil: no further bound).
	admitCap func(v tenantView) int
	// desired is the width the policy wants a running job to hold and the
	// priority of moving it one step there (higher first); nil: running
	// jobs are never resized.
	desired func(v tenantView) (width int, score float64)
}

// newPolicy builds the policy table entry — the only place the Policy
// option is read.
func newPolicy(p Policy) policy {
	switch p {
	case PolicyFair:
		// The fair share is the capacity in containers of the job's size
		// divided by the active tenants, within the spec bounds. Jobs
		// furthest from their share move first.
		share := func(v tenantView) int {
			return min(max(v.capW/max(v.active, 1), v.spec.MinContainers), v.spec.MaxContainers)
		}
		return policy{stepDown: true, admitCap: share,
			desired: func(v tenantView) (int, float64) {
				f := share(v)
				return f, math.Abs(float64(f - v.width))
			}}
	case PolicyRegret:
		// Queue delay is pure regret: while the queue is blocked every
		// job's desired width is its minimum and the one losing the fewest
		// seconds gives up a step; once it drains every job wants its
		// maximum and the one saving the most seconds per step grows first.
		return policy{stepDown: true, bypass: true,
			desired: func(v tenantView) (int, float64) {
				d, to := v.spec.MaxContainers, v.width+v.spec.Step
				if v.blocked {
					d, to = v.spec.MinContainers, max(v.width-v.spec.Step, 1)
				}
				return d, v.rem/speedup(v.width) - v.rem/speedup(to)
			}}
	}
	return policy{}
}

// capacityWidth returns how many containers of the given size the live
// cluster could hold in total if it were empty — the width ceiling any
// admission may target. Requeued failure victims are clamped to this, so a
// job admitted wide on a healthy cluster cannot deadlock the queue asking
// for a width the shrunken cluster can never grant.
func (s *Service) capacityWidth(cs conf.Bytes) int {
	if cs <= 0 {
		return 0
	}
	return int(s.cc.MemPerNode/max(cs, s.cc.MinAlloc)) * s.live().Nodes
}

// admitWidth picks the admission width for a queued job whose per-container
// size is cs: the desired width clamped to what the live cluster could ever
// hold — never below the spec minimum; if even that does not fit,
// allocation fails and the job waits like any other — and to the policy's
// admission cap.
func (s *Service) admitWidth(j *job, cs conf.Bytes) int {
	v := tenantView{spec: j.spec.Elastic, capW: s.capacityWidth(cs), active: s.running + len(s.queue)}
	w := max(min(j.spec.Elastic.DesiredContainers, v.capW), j.spec.Elastic.MinContainers)
	if s.pol.admitCap != nil {
		w = min(w, s.pol.admitCap(v))
	}
	return w
}

// reconcile runs the policy engine after every settle's admission: for each
// malleable running job without a booked change it asks the policy for the
// desired width and books allocated != desired, one step at a time, through
// scheduleResize. While the queue is blocked only shrinks are booked, one
// victim per pass — capacity frees, admission retries, and the next blocked
// pass shrinks further if needed; once it drains, grows are booked in score
// order as long as the free memory not yet promised to an earlier grow
// covers them.
func (s *Service) reconcile() {
	if s.pol.desired == nil {
		return
	}
	type want struct {
		j      *job
		target int
		score  float64
	}
	blocked := len(s.queue) > 0
	dir := +1
	if blocked {
		dir = -1
	}
	var wants []want
	for _, j := range s.resident() {
		if j == nil || j.state != jsRunning || j.pendingW != 0 || j.spec.Elastic.rigid() {
			continue
		}
		w := len(j.conts)
		d, score := s.pol.desired(tenantView{
			spec: j.spec.Elastic, width: w, capW: s.capacityWidth(j.conts[0].Mem),
			active: s.running + len(s.queue), blocked: blocked,
			rem: max((1-s.progressAt(j))*j.id.run.simSeconds, 0),
		})
		if (d-w)*dir <= 0 {
			continue
		}
		if _, ok := s.resizePoint(j, dir); !ok {
			continue
		}
		// A grow stops at the desired width; a shrink gives up a whole step
		// even past it, down to the spec minimum.
		target := min(w+j.spec.Elastic.Step, d)
		if blocked {
			target = max(w-j.spec.Elastic.Step, j.spec.Elastic.MinContainers)
		}
		wants = append(wants, want{j, target, score})
	}
	sort.SliceStable(wants, func(a, b int) bool { return wants[a].score > wants[b].score })
	if blocked && len(wants) > 1 {
		wants = wants[:1]
	}
	budget := s.rm.AvailableMem()
	for _, wt := range wants {
		need := conf.Bytes(wt.target-len(wt.j.conts)) * wt.j.conts[0].Mem
		if need <= budget && s.scheduleResize(wt.j, wt.target) {
			budget -= need
		}
	}
}

// resizePoint returns when a width change in the given direction (+1 grow,
// -1 shrink) may take effect: the next boundary of the job's progress
// schedule it has not yet passed. Block-structured jobs change width at
// block boundaries either way. Epoch-structured jobs grow at epoch
// boundaries, where no batch is in flight, and shrink at any instant,
// snapping progress back to the last completed batch (the partial batch is
// re-done and accounted as WastedWork). Inside a charge window progress is
// still pinned to the last boundary, so the width can change as soon as
// execution starts. ok is false when the next boundary is completion.
func (s *Service) resizePoint(j *job, dir int) (float64, bool) {
	per := float64(j.id.run.blocks) // boundaries per job; 0 = any instant
	if j.id.run.epochs > 0 {
		per = float64(j.id.run.epochs)
		if dir < 0 {
			per = 0
		}
	}
	if j.ckpt >= 1 {
		return 0, false
	}
	if s.now <= j.execStart {
		return j.execStart, true
	}
	b := s.progressAt(j)
	if per > 0 {
		b = math.Ceil(b*per-snapEps) / per
	}
	if b >= 1-1e-12 {
		return 0, false
	}
	if per == 0 {
		return s.now, true
	}
	t := j.execStart + (b-j.ckpt)/(1-j.ckpt)*(j.finish-j.execStart)
	return math.Max(t, s.now), true
}

// scheduleResize books a width change for a running job at its next
// resizePoint. The pending target keeps reconcile from double-promising the
// same capacity; the event's generation check drops the booking if anything
// reschedules the job first.
func (s *Service) scheduleResize(j *job, target int) bool {
	dir := +1
	if target < len(j.conts) {
		dir = -1
	}
	at, ok := s.resizePoint(j, dir)
	if !ok || target == len(j.conts) {
		return false
	}
	j.pendingW = target
	s.push(event{at: at, kind: evResize, job: j.idx, gen: j.gen})
	return true
}

// applyResize delivers a booked width change: claim or release containers,
// re-plan under the new allocation through the shared plan-cache path
// (§5 — the plan always matches the current allocation; the view is clamped
// to the granted container size), run it, snap progress down to the last
// completed boundary, and start the new plan. The job is re-simulated under
// the re-optimized configuration — or starts from its own current run if
// the live view and configuration did not move, or from the run kept on
// that plan's cache entry — so its outputs remain exactly the
// plan-invariant results every fixed-width run produces.
func (s *Service) applyResize(ev event) {
	j := s.jobs[ev.job]
	if j == nil || j.state != jsRunning || ev.gen != j.gen {
		return
	}
	target, w, cs := j.pendingW, len(j.conts), j.conts[0].Mem
	j.pendingW = 0
	if target < 1 || target == w {
		return
	}
	if target > w {
		got, err := s.rm.AllocateGroup(target-w, cs)
		if err != nil {
			// The capacity promised at planning time went elsewhere (an
			// admission or another grow won the race of events). Keep the
			// current width; the next pass re-plans against reality.
			return
		}
		j.conts = append(j.conts, got...)
	} else {
		s.release(j, j.conts[target:])
		j.conts = j.conts[:target]
	}

	r := &planReq{j: j, view: opt.WidthClamped(s.live(), cs)}
	s.plan(r)
	if sr := s.run(r)[0]; sr.err == nil {
		var wasted float64
		if j.ckpt, wasted = s.snap(j, true); wasted > 0 {
			s.tr.Metrics().Add("workload.resize_wasted", 1)
		}
		s.start(r, sr, resizeCharge)
	} else {
		// The program compiled and ran at admission; a failure here is a
		// bookkeeping bug, not a tenant error — surface it and keep the old
		// schedule (the old depart event is still valid: gen unchanged).
		s.tr.Complete(obs.LayerWorkload, "workload.resize-error", s.now, 0,
			obs.A("tenant", j.result.Tenant), obs.A("err", sr.err.Error()))
	}
	j.result.Width = target
	j.result.MinWidth = min(j.result.MinWidth, target)
	if target > w {
		j.result.Grows++
		s.tr.Metrics().Add("workload.grows", 1)
	} else {
		j.result.Shrinks++
		s.tr.Metrics().Add("workload.shrinks", 1)
	}
	s.brk.recordChurn(s.now)
	s.tr.Complete(obs.LayerWorkload, "workload.resize", s.now, resizeCharge,
		obs.A("tenant", j.result.Tenant), obs.A("from", w), obs.A("to", target),
		obs.A("config", j.res.String()))
	s.tr.Metrics().Add("workload.resizes", 1)
}
