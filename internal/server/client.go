// Client is the Go-side counterpart of the daemon: it dials, performs the
// Hello handshake, and multiplexes request/reply pairs plus asynchronous
// JobResult frames over one connection. All methods are safe for
// concurrent use; a background read loop routes replies by request id and
// results by job id.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"elasticml/internal/obs"
)

// Client speaks the wire protocol over one session.
type Client struct {
	conn     net.Conn
	maxFrame uint32

	wmu sync.Mutex // serializes outbound frames

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan Message
	results map[uint32]chan *JobResult
	// orphans parks JobResult frames that arrive between the JobAccepted
	// ack being routed and Submit registering its result channel.
	orphans map[uint32]*JobResult
	readErr error
	closed  bool
}

// DialTimeout is the default handshake and RPC deadline.
const DialTimeout = 30 * time.Second

// Dial connects and performs the handshake. Overload (full session pool)
// and version mismatch surface as the typed ErrOverloaded and
// ErrVersionMismatch errors.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(DialTimeout))
	if err := WriteFrame(conn, &Hello{Version: ProtoVersion, Client: "elasticml-client"}, DefaultMaxFrame); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := ReadFrame(conn, DefaultMaxFrame)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	ack, err := as[*HelloAck](reply)
	if err == nil && ack.Version != ProtoVersion {
		err = fmt.Errorf("%w: server acked version %d", ErrVersionMismatch, ack.Version)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:     conn,
		maxFrame: ack.MaxFrame,
		pending:  map[uint64]chan Message{},
		results:  map[uint32]chan *JobResult{},
		orphans:  map[uint32]*JobResult{},
	}
	go c.readLoop()
	return c, nil
}

// readLoop routes inbound frames until the connection dies.
func (c *Client) readLoop() {
	for {
		m, err := ReadFrame(c.conn, c.maxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		switch m := m.(type) {
		case *JobResult:
			c.mu.Lock()
			ch := c.results[m.Job]
			if ch == nil {
				c.orphans[m.Job] = m
			} else {
				delete(c.results, m.Job)
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		default:
			id := reqIDOf(m)
			c.mu.Lock()
			ch := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		}
	}
}

// fail poisons every waiter with the terminal read error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil {
		if c.closed {
			err = errors.New("client: closed")
		}
		c.readErr = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	for job, ch := range c.results {
		delete(c.results, job)
		close(ch)
	}
}

// rpc sends one request and waits for its reply frame.
func (c *Client) rpc(build func(reqID uint64) Message) (Message, error) {
	ch := make(chan Message, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextReq++
	id := c.nextReq
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(DialTimeout))
	err := WriteFrame(c.conn, build(id), c.maxFrame)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	m, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	return m, nil
}

// as types a reply frame: the R the request expects, or the typed error an
// ErrorFrame carries.
func as[R Message](m Message) (R, error) {
	var none R
	switch m := m.(type) {
	case R:
		return m, nil
	case *ErrorFrame:
		return none, m.Err()
	default:
		return none, fmt.Errorf("client: unexpected %s frame, want %s", m.Type(), none.Type())
	}
}

// call is one RPC: send the request build makes, wait, type the reply.
func call[R Message](c *Client, build func(reqID uint64) Message) (R, error) {
	m, err := c.rpc(build)
	if err != nil {
		var none R
		return none, err
	}
	return as[R](m)
}

// Submit sends one job. On acceptance it returns the assigned job id, its
// simulated arrival time, and a one-shot channel delivering the terminal
// JobResult (closed instead if the connection dies first). Limiter sheds
// come back as ErrOverloaded; a draining server as a plain error.
func (c *Client) Submit(spec JobSpecWire) (uint32, float64, <-chan *JobResult, error) {
	m, err := call[*JobAccepted](c, func(id uint64) Message {
		return &SubmitJob{
			ReqID: id, Tenant: spec.Tenant, Script: spec.Script, Size: spec.Size,
			Cols: spec.Cols, Sparsity: spec.Sparsity, Source: spec.Source,
			Params: spec.Params,
		}
	})
	if err != nil {
		return 0, 0, nil, err
	}
	ch := make(chan *JobResult, 1)
	c.mu.Lock()
	switch {
	case c.orphans[m.Job] != nil:
		ch <- c.orphans[m.Job]
		delete(c.orphans, m.Job)
	case c.readErr != nil:
		close(ch)
	default:
		c.results[m.Job] = ch
	}
	c.mu.Unlock()
	return m.Job, m.Arrival, ch, nil
}

// Status asks for a job's live state.
func (c *Client) Status(job uint32) (*JobStatusAck, error) {
	return call[*JobStatusAck](c, func(id uint64) Message { return &JobStatus{ReqID: id, Job: job} })
}

// Cancel requests a job cancellation; ok reports whether it landed before
// the job turned terminal.
func (c *Client) Cancel(job uint32) (bool, error) {
	m, err := call[*CancelAck](c, func(id uint64) Message { return &CancelJob{ReqID: id, Job: job} })
	if err != nil {
		return false, err
	}
	return m.OK, nil
}

// Metrics fetches a live metrics snapshot.
func (c *Client) Metrics() (obs.MetricsSnapshot, error) {
	m, err := call[*MetricsFrame](c, func(id uint64) Message { return &MetricsRequest{ReqID: id} })
	if err != nil {
		return obs.MetricsSnapshot{}, err
	}
	return m.Snapshot, nil
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	_, err := call[*Pong](c, func(id uint64) Message { return &Ping{ReqID: id} })
	return err
}

// Close tears the session down; outstanding waiters fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
