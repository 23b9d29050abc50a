// The sequencer is the bridge between wall-clock clients and the
// deterministic discrete-event core: a single goroutine owns the
// workload.Service, assigns every submission a monotone *simulated* arrival
// time, and advances the event loop one batch at a time between operations.
//
// Determinism argument: the service's state is a pure function of the
// operation history — the ordered list of (submit spec, assigned arrival)
// and cancel operations, each tagged with the number of event batches
// processed before it. Wall-clock timing only influences *which* history
// gets recorded (how far the loop ran between ops); replaying a recorded
// history through a fresh service — same ops, same arrival times, same
// step counts — reproduces byte-identical reports and traces. Assigned
// arrivals never precede the simulation frontier, so the event loop never
// travels backwards.
//
// A submission's expensive, history-free part — identify, the plan-cache
// key, and on a miss the compile and a cold search — is prepared on the
// submitting session's goroutine (Submit) before the op is sent. The op
// log records only the wire spec, so a replay plans on the sequencer
// instead; the prepared search is committed only when the sequencer's own
// lookup misses under the very key it was computed for, which fixes the
// program, the cluster view and the options, so both arrive at the same
// decision.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"elasticml/internal/conf"
	"elasticml/internal/workload"
)

// DefaultGap is the simulated seconds between consecutive assigned
// arrivals when the cluster is saturated (the frontier is behind the
// arrival chain). Small enough that bursts contend, large enough that
// reports print distinct times.
const DefaultGap = 0.01

// JobSpecWire is the serializable job description carried by SubmitJob
// frames and recorded in the op log. Script-mode jobs name an evaluation
// script plus a data scenario; source-mode jobs carry raw DML.
type JobSpecWire struct {
	Tenant   string  `json:"tenant"`
	Script   string  `json:"script,omitempty"`
	Size     string  `json:"size,omitempty"`
	Cols     int64   `json:"cols,omitempty"`
	Sparsity float64 `json:"sparsity,omitempty"`
	Source   string  `json:"source,omitempty"`
	Params   []Param `json:"params,omitempty"`
}

// toJobSpec converts the wire form into a service JobSpec. The conversion
// is deterministic: live submission and replay build identical specs.
// Non-finite numbers are refused here (and by datagen.Parse): they would run,
// but the op log that records them is JSON, which has no NaN or Inf.
func (w JobSpecWire) toJobSpec(arrival float64) (workload.JobSpec, error) {
	if w.Script != "" {
		spec, err := workload.ScenarioJob{
			Tenant: w.Tenant, Script: w.Script, Size: w.Size, Cols: w.Cols,
			Sparsity: w.Sparsity, Arrival: arrival,
		}.Resolve()
		if err != nil {
			return spec, fmt.Errorf("job %q: %w", w.Tenant, err)
		}
		return spec, nil
	}
	spec := workload.JobSpec{Tenant: w.Tenant, Arrival: arrival, Source: w.Source}
	if w.Source == "" {
		return spec, fmt.Errorf("job %q: neither script nor source", w.Tenant)
	}
	if len(w.Params) > 0 {
		spec.Params = make(map[string]interface{}, len(w.Params))
	}
	for _, p := range w.Params {
		switch p.Kind {
		case ParamFloat:
			if math.IsNaN(p.F) || math.IsInf(p.F, 0) {
				return spec, fmt.Errorf("job %q: param %q is not finite", w.Tenant, p.Key)
			}
			spec.Params[p.Key] = p.F
		case ParamInt:
			spec.Params[p.Key] = p.I
		case ParamString:
			spec.Params[p.Key] = p.S
		case ParamBool:
			spec.Params[p.Key] = p.B
		default:
			return spec, fmt.Errorf("job %q: bad param kind %d", w.Tenant, p.Kind)
		}
	}
	return spec, nil
}

// Op is one recorded sequencer operation. Steps is the cumulative count of
// event batches the sequencer had processed when the op was applied — the
// exact interleaving needed to replay the run.
type Op struct {
	Kind    string       `json:"kind"` // "submit" | "cancel"
	Steps   int          `json:"steps"`
	Job     int          `json:"job"`
	Arrival float64      `json:"arrival,omitempty"`
	Spec    *JobSpecWire `json:"spec,omitempty"`
}

// RecordLog is a complete, self-contained recording of one live run: the
// cluster, the service options, the arrival gap, and the operation
// history. Replay() turns it back into the identical report. Cluster and
// Options are the service's own types in their own JSON encoding — the one
// a run description (workload.RunSpec) is written in — so every option
// that shapes the run is in the log; the tracer is not an option and is
// cleared.
type RecordLog struct {
	Cluster conf.Cluster     `json:"cluster"`
	Options workload.Options `json:"options"`
	Gap     float64          `json:"gap"`
	Ops     []Op             `json:"ops"`
}

// WriteJSON marshals the log with stable formatting.
func (l *RecordLog) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadRecordLog parses a recorded op log.
func ReadRecordLog(r io.Reader) (*RecordLog, error) {
	var l RecordLog
	dec := json.NewDecoder(r)
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("record log: %w", err)
	}
	return &l, nil
}

// seqOp is one request into the sequencer goroutine.
type seqOp struct {
	kind     string // "submit" | "cancel" | "status"
	spec     JobSpecWire
	prepared workload.JobSpec // submit: spec converted and prepared by Submit
	job      int
	onResult func(int, workload.TenantResult)
	reply    chan seqReply
}

type seqReply struct {
	job     int
	arrival float64
	state   string
	result  workload.TenantResult
	ok      bool
	err     error
}

// Sequencer owns a live workload.Service and serializes all access to it.
type Sequencer struct {
	svc *workload.Service
	gap float64

	ops  chan *seqOp // by pointer: 256 slots of a seqOp by value are 88 KB
	done chan struct{}

	mu     sync.Mutex
	closed bool

	// Goroutine-local state (only the run loop touches these until done is
	// closed; Log/FinalReport read them after).
	log         RecordLog
	steps       int
	lastArrival float64
	subs        map[int]func(int, workload.TenantResult)
	report      *workload.Report
}

// NewSequencer starts the sequencer goroutine over a fresh service. Chaos
// (if any is configured) is scheduled before the first submission, so a
// replay can do the same.
func NewSequencer(cc conf.Cluster, o workload.Options, gap float64) (*Sequencer, error) {
	if gap <= 0 {
		gap = DefaultGap
	}
	svc, err := workload.New(cc, o)
	if err != nil {
		return nil, err
	}
	svc.ScheduleChaos()
	// A replay of the in-memory log must not write into the live tracer.
	o.Trace = nil
	s := &Sequencer{
		svc:         svc,
		gap:         gap,
		ops:         make(chan *seqOp, 256),
		done:        make(chan struct{}),
		lastArrival: -gap,
		subs:        map[int]func(int, workload.TenantResult){},
		log: RecordLog{
			Cluster: cc,
			Options: o,
			Gap:     gap,
		},
	}
	go s.run()
	return s, nil
}

// run is the sequencer goroutine: ingest pending ops first (they are cheap
// and assign arrival times), otherwise advance the event loop one batch,
// otherwise block for work.
func (s *Sequencer) run() {
	defer close(s.done)
	for {
		select {
		case op, ok := <-s.ops:
			if !ok {
				s.drain()
				return
			}
			s.apply(op)
			continue
		default:
		}
		if s.svc.Step() {
			s.steps++
			s.deliver()
			continue
		}
		op, ok := <-s.ops
		if !ok {
			s.drain()
			return
		}
		s.apply(op)
	}
}

// apply executes one op against the service; a submit only stamps the
// arrival on the spec Submit prepared.
func (s *Sequencer) apply(op *seqOp) {
	switch op.kind {
	case "submit":
		at := s.svc.Frontier()
		if min := s.lastArrival + s.gap; min > at {
			at = min
		}
		spec := op.prepared
		spec.Arrival = at
		idx, err := s.svc.Submit(spec)
		if err != nil {
			op.reply <- seqReply{err: err}
			return
		}
		s.lastArrival = at
		wire := op.spec
		s.log.Ops = append(s.log.Ops, Op{
			Kind: "submit", Steps: s.steps, Job: idx, Arrival: at, Spec: &wire,
		})
		if op.onResult != nil {
			s.subs[idx] = op.onResult
		}
		op.reply <- seqReply{job: idx, arrival: at}
	case "cancel":
		s.log.Ops = append(s.log.Ops, Op{Kind: "cancel", Steps: s.steps, Job: op.job})
		ok := s.svc.Cancel(op.job)
		op.reply <- seqReply{job: op.job, ok: ok}
		s.deliver()
	case "status":
		res, ok := s.svc.Result(op.job)
		state, _ := s.svc.State(op.job)
		op.reply <- seqReply{job: op.job, state: state, result: res, ok: ok}
	}
}

// deliver streams freshly terminal results to their subscribers.
func (s *Sequencer) deliver() {
	for _, idx := range s.svc.DrainFinished() {
		cb := s.subs[idx]
		if cb == nil {
			continue
		}
		delete(s.subs, idx)
		if res, ok := s.svc.Result(idx); ok {
			cb(idx, res)
		}
	}
}

// drain runs the event loop to quiescence, finalizes the report, and
// notifies the remaining subscribers (unserved jobs included).
func (s *Sequencer) drain() {
	for s.svc.Step() {
		s.steps++
		s.deliver()
	}
	s.report = s.svc.Finalize()
	s.deliver()
}

// send enqueues one op, failing fast once the sequencer is draining.
func (s *Sequencer) send(op *seqOp) (seqReply, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return seqReply{}, fmt.Errorf("sequencer: shutting down")
	}
	s.ops <- op
	s.mu.Unlock()
	return <-op.reply, nil
}

// Submit sequences one submission and returns the assigned job id and
// simulated arrival time. The spec is converted and prepared
// (workload.Service.Prepare: identify, and on a plan-cache miss compile and
// a cold search) on the caller's goroutine, so sessions do that work in
// parallel with each other and with the sequencer, which only commits it
// in order. onResult (optional) fires exactly once from the sequencer
// goroutine — with the job id and terminal result — when the job reaches a
// terminal state, possibly before Submit itself returns.
func (s *Sequencer) Submit(spec JobSpecWire, onResult func(int, workload.TenantResult)) (int, float64, error) {
	job, err := spec.toJobSpec(0)
	if err != nil {
		return 0, 0, err
	}
	rep, err := s.send(&seqOp{kind: "submit", spec: spec, prepared: s.svc.Prepare(job),
		onResult: onResult, reply: make(chan seqReply, 1)})
	if err != nil {
		return 0, 0, err
	}
	if rep.err != nil {
		return 0, 0, rep.err
	}
	return rep.job, rep.arrival, nil
}

// Cancel sequences a cancellation; ok is false if the job was unknown or
// already terminal.
func (s *Sequencer) Cancel(job int) (bool, error) {
	rep, err := s.send(&seqOp{kind: "cancel", job: job, reply: make(chan seqReply, 1)})
	if err != nil {
		return false, err
	}
	return rep.ok, nil
}

// Status returns a job's current state name and result copy.
func (s *Sequencer) Status(job int) (string, workload.TenantResult, bool, error) {
	rep, err := s.send(&seqOp{kind: "status", job: job, reply: make(chan seqReply, 1)})
	if err != nil {
		return "", workload.TenantResult{}, false, err
	}
	return rep.state, rep.result, rep.ok, nil
}

// Drain stops accepting operations, runs the event loop dry, and returns
// the final report. Safe to call once; concurrent submitters get a
// shutting-down error.
func (s *Sequencer) Drain() *workload.Report {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ops)
	}
	s.mu.Unlock()
	<-s.done
	return s.report
}

// Log returns the recorded operation history. Only valid after Drain.
func (s *Sequencer) Log() *RecordLog {
	<-s.done
	l := s.log
	return &l
}

// Replay reproduces a recorded run: same cluster, options, arrival times,
// and op/step interleaving — byte-identical report by construction.
func Replay(l *RecordLog) (*workload.Report, error) {
	svc, err := workload.New(l.Cluster, l.Options)
	if err != nil {
		return nil, err
	}
	svc.ScheduleChaos()
	steps := 0
	for i, op := range l.Ops {
		for steps < op.Steps {
			if !svc.Step() {
				return nil, fmt.Errorf("replay: op %d expects %d steps, event queue drained at %d", i, op.Steps, steps)
			}
			steps++
		}
		switch op.Kind {
		case "submit":
			if op.Spec == nil {
				return nil, fmt.Errorf("replay: op %d: submit without spec", i)
			}
			spec, err := op.Spec.toJobSpec(op.Arrival)
			if err != nil {
				return nil, fmt.Errorf("replay: op %d: %w", i, err)
			}
			idx, err := svc.Submit(spec)
			if err != nil {
				return nil, fmt.Errorf("replay: op %d: %w", i, err)
			}
			if idx != op.Job {
				return nil, fmt.Errorf("replay: op %d: job index %d, recorded %d", i, idx, op.Job)
			}
		case "cancel":
			svc.Cancel(op.Job)
		default:
			return nil, fmt.Errorf("replay: op %d: unknown kind %q", i, op.Kind)
		}
	}
	for svc.Step() {
	}
	return svc.Finalize(), nil
}
