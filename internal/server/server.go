// The daemon: a TCP front-end over the sequencer. Each accepted
// connection becomes a session holding one slot in a fixed-size pool;
// sessions speak the length-prefixed binary protocol, are closed after an
// idle timeout, and shed — with a typed Error frame, never a dropped
// connection — when the pool, the byte-rate bucket, or the inflight-jobs
// cap says no. Shutdown drains gracefully: the listener closes, live jobs
// run to completion, results stream out, and the final deterministic
// report plus the recorded op log become available to the caller.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"elasticml/internal/obs"
	"elasticml/internal/workload"
)

// Duration is a wall-clock time.Duration that reads from JSON as a Go
// duration string ("2m", "30s"), the spelling a hand-written file uses.
type Duration time.Duration

func (d *Duration) UnmarshalText(b []byte) error {
	v, err := time.ParseDuration(string(b))
	*d = Duration(v)
	return err
}

// ServerConfig tunes the daemon. Zero values pick the documented defaults.
// The JSON form is the "daemon" section of a run description.
type ServerConfig struct {
	// MaxSessions is the fixed session-pool size (default 16). A
	// connection beyond the pool is answered with CodeOverloaded and
	// closed after the reply is written.
	MaxSessions int `json:"max_sessions"`
	// IdleTimeout closes sessions with no inbound frame for this long
	// (default 2 minutes).
	IdleTimeout Duration `json:"idle_timeout"`
	// MaxFrame bounds inbound and outbound frames (default DefaultMaxFrame).
	MaxFrame uint32 `json:"max_frame"`
	// Limiter configures the byte-rate and inflight-jobs guards.
	Limiter LimiterPolicy `json:"limiter"`
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = Duration(2 * time.Minute)
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// Server accepts sessions and routes their requests into the sequencer.
type Server struct {
	cfg ServerConfig
	seq *Sequencer
	lim *Limiter
	met *obs.Metrics

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	draining bool

	slots chan struct{}
	wg    sync.WaitGroup
}

// NewServer wraps a sequencer in a daemon. met may be nil.
func NewServer(seq *Sequencer, cfg ServerConfig, met *obs.Metrics) *Server {
	cfg = cfg.withDefaults()
	// The limiter must always be able to admit the largest frame this
	// server will actually accept on the wire.
	cfg.Limiter.maxFrame = float64(cfg.MaxFrame)
	return &Server{
		cfg:      cfg,
		seq:      seq,
		lim:      NewLimiter(cfg.Limiter, nil),
		met:      met,
		sessions: map[*session]struct{}{},
		slots:    make(chan struct{}, cfg.MaxSessions),
	}
}

// Serve runs the accept loop until the listener closes (via Shutdown).
// It always returns a non-nil error; after Shutdown it is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.met.Add("server.conns.accepted", 1)
		select {
		case s.slots <- struct{}{}:
		default:
			// Pool exhausted: shed with a typed frame, then close. The
			// write has a short deadline so a stalled peer cannot pin us.
			s.met.Add("server.conns.shed", 1)
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			WriteFrame(conn, &ErrorFrame{Code: CodeOverloaded, Msg: "session pool exhausted"}, s.cfg.MaxFrame)
			conn.Close()
			continue
		}
		sess := &session{srv: s, conn: conn}
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.met.SetGauge("server.sessions.active", float64(len(s.slots)))
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
			<-s.slots
			s.met.SetGauge("server.sessions.active", float64(len(s.slots)))
		}()
	}
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Shutdown drains gracefully: stop accepting, wait (up to timeout) for
// inflight jobs to reach terminal states with results streamed out, then
// drain the sequencer and close every session. It returns the final
// deterministic report.
func (s *Server) Shutdown(timeout time.Duration) *workload.Report {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	deadline := time.Now().Add(timeout)
	for s.lim.Inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rep := s.seq.Drain()
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return rep
}

// Log returns the recorded op history; only valid after Shutdown.
func (s *Server) Log() *RecordLog { return s.seq.Log() }

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// session is one pooled connection.
type session struct {
	srv  *Server
	conn net.Conn
	wmu  sync.Mutex // serializes frames: handler goroutine + result callbacks
}

// write sends one frame under the session write lock.
func (ss *session) write(m Message) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	ss.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return WriteFrame(ss.conn, m, ss.srv.cfg.MaxFrame)
}

// run drives one session: handshake, then the request loop.
func (ss *session) run() {
	defer ss.conn.Close()
	s := ss.srv
	cr := &countingReader{r: ss.conn}

	// Handshake: the first frame must be a compatible Hello.
	ss.conn.SetReadDeadline(time.Now().Add(time.Duration(s.cfg.IdleTimeout)))
	first, err := ReadFrame(cr, s.cfg.MaxFrame)
	if err != nil {
		ss.replyReadError(err)
		return
	}
	hello, ok := first.(*Hello)
	if !ok {
		ss.write(&ErrorFrame{Code: CodeBadRequest, Msg: fmt.Sprintf("expected Hello, got %s", first.Type())})
		return
	}
	if hello.Version != ProtoVersion {
		s.met.Add("server.handshake.version_mismatch", 1)
		ss.write(&ErrorFrame{Code: CodeVersionMismatch,
			Msg: fmt.Sprintf("server speaks version %d, client sent %d", ProtoVersion, hello.Version)})
		return
	}
	if err := ss.write(&HelloAck{Version: ProtoVersion, Server: "elasticml", MaxFrame: s.cfg.MaxFrame}); err != nil {
		return
	}
	s.met.Add("server.handshake.ok", 1)

	for {
		ss.conn.SetReadDeadline(time.Now().Add(time.Duration(s.cfg.IdleTimeout)))
		before := cr.n
		m, err := ReadFrame(cr, s.cfg.MaxFrame)
		if err != nil {
			ss.replyReadError(err)
			return
		}
		frameBytes := int(cr.n - before)
		s.met.Add("server.frames.in", 1)
		s.met.Add("server.bytes.in", int64(frameBytes))

		if !s.lim.AllowBytes(frameBytes) {
			// Byte-rate shed: typed frame, session stays open.
			s.met.Add("server.shed.bytes", 1)
			if ss.write(&ErrorFrame{ReqID: reqIDOf(m), Code: CodeOverloaded, Msg: "byte-rate limit"}) != nil {
				return
			}
			continue
		}
		start := time.Now()
		if !ss.dispatch(m) {
			return
		}
		s.met.Observe("server.request.ms", float64(time.Since(start))/float64(time.Millisecond))
	}
}

// replyReadError answers a broken inbound stream. Framing violations get a
// final typed Error frame before the close; clean EOF and timeouts close
// silently.
func (ss *session) replyReadError(err error) {
	switch {
	case err == io.EOF:
	case errors.Is(err, os.ErrDeadlineExceeded):
		ss.srv.met.Add("server.sessions.idle_closed", 1)
	case errors.Is(err, ErrFrameTooLarge):
		ss.srv.met.Add("server.frames.bad", 1)
		ss.write(&ErrorFrame{Code: CodeBadRequest, Msg: err.Error()})
	case errors.Is(err, ErrMalformed), errors.Is(err, ErrUnknownMessage), errors.Is(err, ErrTruncatedFrame):
		ss.srv.met.Add("server.frames.bad", 1)
		ss.write(&ErrorFrame{Code: CodeBadRequest, Msg: err.Error()})
	}
}

// dispatch handles one request frame; false closes the session.
func (ss *session) dispatch(m Message) bool {
	s := ss.srv
	switch m := m.(type) {
	case *Ping:
		return ss.write(&Pong{ReqID: m.ReqID}) == nil
	case *SubmitJob:
		return ss.submit(m)
	case *JobStatus:
		state, res, ok, err := s.seq.Status(int(m.Job))
		if err != nil {
			return ss.write(&ErrorFrame{ReqID: m.ReqID, Code: CodeShuttingDown, Msg: err.Error()}) == nil
		}
		if !ok {
			return ss.write(&ErrorFrame{ReqID: m.ReqID, Code: CodeUnknownJob, Msg: fmt.Sprintf("job %d", m.Job)}) == nil
		}
		return ss.write(&JobStatusAck{
			ReqID: m.ReqID, Job: m.Job, State: state, Tenant: res.Tenant,
			Arrival: res.Arrival, Admitted: res.Admitted, Finished: res.Finished,
		}) == nil
	case *CancelJob:
		ok, err := s.seq.Cancel(int(m.Job))
		if err != nil {
			return ss.write(&ErrorFrame{ReqID: m.ReqID, Code: CodeShuttingDown, Msg: err.Error()}) == nil
		}
		s.met.Add("server.jobs.canceled", boolToInt(ok))
		return ss.write(&CancelAck{ReqID: m.ReqID, Job: m.Job, OK: ok}) == nil
	case *MetricsRequest:
		return ss.write(&MetricsFrame{ReqID: m.ReqID, Snapshot: s.met.Snapshot()}) == nil
	default:
		// A server-to-client frame arriving inbound is a protocol abuse.
		return ss.write(&ErrorFrame{ReqID: reqIDOf(m), Code: CodeBadRequest,
			Msg: fmt.Sprintf("unexpected %s frame", m.Type())}) == nil
	}
}

// submit admits one job through the limiter and sequencer; the result
// streams back asynchronously on this session when the job turns terminal.
func (ss *session) submit(m *SubmitJob) bool {
	s := ss.srv
	if s.isDraining() {
		return ss.write(&ErrorFrame{ReqID: m.ReqID, Code: CodeShuttingDown, Msg: "server draining"}) == nil
	}
	if !s.lim.AcquireJob() {
		s.met.Add("server.shed.inflight", 1)
		return ss.write(&ErrorFrame{ReqID: m.ReqID, Code: CodeOverloaded, Msg: "inflight job cap"}) == nil
	}
	spec := JobSpecWire{
		Tenant: m.Tenant, Script: m.Script, Size: m.Size, Cols: m.Cols,
		Sparsity: m.Sparsity, Source: m.Source, Params: m.Params,
	}
	submitted := time.Now()
	job, arrival, err := s.seq.Submit(spec, func(idx int, res workload.TenantResult) {
		s.lim.ReleaseJob()
		s.met.Add("server.jobs.completed", 1)
		s.met.Observe("server.job.wall_ms", float64(time.Since(submitted))/float64(time.Millisecond))
		s.met.SetGauge("server.jobs.inflight", float64(s.lim.Inflight()))
		ss.write(resultFrame(idx, res))
	})
	if err != nil {
		s.lim.ReleaseJob()
		code := CodeBadRequest
		if s.isDraining() {
			code = CodeShuttingDown
		}
		return ss.write(&ErrorFrame{ReqID: m.ReqID, Code: code, Msg: err.Error()}) == nil
	}
	s.met.Add("server.jobs.submitted", 1)
	s.met.SetGauge("server.jobs.inflight", float64(s.lim.Inflight()))
	return ss.write(&JobAccepted{ReqID: m.ReqID, Job: uint32(job), Arrival: arrival}) == nil
}

// resultFrame converts a terminal tenant result into its wire form.
func resultFrame(job int, res workload.TenantResult) *JobResult {
	var fl ResultFlags
	if res.Served {
		fl |= FlagServed
	}
	if res.CacheHit {
		fl |= FlagCacheHit
	}
	if res.Degraded || res.BreakerDegraded {
		fl |= FlagDegraded
	}
	if res.Shed {
		fl |= FlagShed
	}
	if res.FailedPermanently {
		fl |= FlagFailedPerm
	}
	if res.Canceled {
		fl |= FlagCanceled
	}
	return &JobResult{
		Job:    uint32(job),
		Tenant: res.Tenant, Program: res.Program, Config: res.Config, Flags: fl,
		Arrival: res.Arrival, Admitted: res.Admitted, Finished: res.Finished,
		QueueDelay: res.QueueDelay, Latency: res.Latency, WastedWork: res.WastedWork,
		Reopts: uint32(res.Reopts), Requeues: uint32(res.Requeues),
		OutputHash: res.OutputHash, Error: res.Error,
	}
}

// reqIDOf extracts a frame's request id (0 for the handshake frames and
// JobResult, which correlate by other means).
func reqIDOf(m Message) uint64 {
	switch m := m.(type) {
	case *SubmitJob:
		return m.ReqID
	case *JobAccepted:
		return m.ReqID
	case *JobStatus:
		return m.ReqID
	case *JobStatusAck:
		return m.ReqID
	case *CancelJob:
		return m.ReqID
	case *CancelAck:
		return m.ReqID
	case *MetricsRequest:
		return m.ReqID
	case *MetricsFrame:
		return m.ReqID
	case *Ping:
		return m.ReqID
	case *Pong:
		return m.ReqID
	case *ErrorFrame:
		return m.ReqID
	}
	return 0
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// countingReader counts bytes consumed, so the byte-rate bucket charges
// exact wire sizes (header included).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
