package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"elasticml/internal/obs"
	"elasticml/internal/workload"
)

// startServer boots a daemon on a loopback port and returns it with its
// address. The caller must Shutdown.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	o := workload.DefaultOptions()
	seq, err := NewSequencer(testCluster(), o, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(seq, cfg, obs.NewMetrics())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// TestServerEndToEnd is the acceptance run: ≥10k requests over 4
// concurrent sessions, every accepted job's result streamed back, zero
// hard errors, and the recorded op log replaying to a byte-identical
// report after shutdown.
func TestServerEndToEnd(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{MaxSessions: 8})

	st, err := RunLoad(LoadConfig{
		Addr:        addr,
		Sessions:    4,
		Requests:    10000,
		Tenants:     16,
		Seed:        1,
		SubmitEvery: 40, // ~250 submissions; the rest ping/status probes
		WaitResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 10000 {
		t.Fatalf("drove %d requests, want >= 10000", st.Requests)
	}
	if st.Errors != 0 {
		t.Fatalf("hard errors: %+v", st)
	}
	if st.Shed != 0 {
		t.Fatalf("unconfigured limiter shed requests: %+v", st)
	}
	if st.Submits == 0 || st.Accepted != st.Submits {
		t.Fatalf("accepted %d of %d submits", st.Accepted, st.Submits)
	}
	if st.Results != st.Accepted {
		t.Fatalf("results %d, accepted %d", st.Results, st.Accepted)
	}

	live := srv.Shutdown(5 * time.Second)
	if len(live.Tenants) != st.Accepted {
		t.Fatalf("report has %d tenants, accepted %d", len(live.Tenants), st.Accepted)
	}
	replayed, err := Replay(srv.Log())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	a, b := reportJSON(t, live), reportJSON(t, replayed)
	if string(a) != string(b) {
		t.Fatal("live and replayed reports differ")
	}

	// Most of the 10k requests are loopback pings far below a millisecond;
	// the latency histogram must resolve them, not round them to 0.
	if h := srv.met.Hist("server.request.ms"); h.Count < 10000 || h.Min <= 0 || h.Min >= 1 {
		t.Fatalf("server.request.ms does not resolve sub-millisecond requests: %+v", h)
	}
}

// slowJobSource is a self-contained value-mode program whose dense
// multiply chain costs real wall time on the sequencer goroutine — it
// pins an inflight slot for the duration of the burst below. (Simulated
// scenario jobs no longer work for that: the memoized admission path
// processes them faster than clients can pile up submits.)
const slowJobSource = `
X = matrix(1.5, rows=400, cols=400)
Y = X %*% X %*% X %*% X %*% X %*% X %*% X %*% X
print(sum(Y))
`

// TestServerInflightShed: with a tiny inflight cap a submit burst sheds
// with typed ErrOverloaded frames while every connection stays usable,
// and slots freed by completed jobs become admissible again.
func TestServerInflightShed(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{
		MaxSessions: 8,
		Limiter:     LimiterPolicy{MaxInflight: 2},
	})
	defer srv.Shutdown(5 * time.Second)

	clients := make([]*Client, 4)
	for i := range clients {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	// Occupy one of the two slots with a wall-slow job. Any burst submit
	// that lands before it completes finds at most one free slot, and the
	// one job that claims it queues behind the slow job's execution — so
	// both slots stay held for the slow job's full runtime.
	_, _, slowDone, err := clients[0].Submit(JobSpecWire{Tenant: "slow", Source: slowJobSource})
	if err != nil {
		t.Fatalf("slow submit: %v", err)
	}

	var mu sync.Mutex
	var accepted, shed int
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				_, _, _, err := cl.Submit(JobSpecWire{
					Tenant: fmt.Sprintf("s%d-%d", i, j), Script: "L2SVM", Size: "XS", Cols: 100,
				})
				mu.Lock()
				switch {
				case err == nil:
					accepted++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					mu.Unlock()
					t.Errorf("submit: %v", err)
					return
				}
				mu.Unlock()
			}
		}(i, cl)
	}
	wg.Wait()
	if accepted == 0 {
		t.Fatalf("no burst submit was accepted (shed %d)", shed)
	}
	if shed == 0 {
		t.Fatalf("no sheds despite cap 2 and 32 rapid submits (accepted %d)", accepted)
	}
	// Every session survived its sheds: the connection still answers.
	for _, cl := range clients {
		if err := cl.Ping(); err != nil {
			t.Fatalf("post-shed ping: %v", err)
		}
	}

	// Once the slow job finishes its slot frees up and submits are
	// admitted again (the queued burst job drains with it).
	select {
	case res := <-slowDone:
		if res == nil {
			t.Fatal("slow job result channel closed without a result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("slow job never completed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, _, err := clients[1].Submit(JobSpecWire{
			Tenant: "after", Script: "L2SVM", Size: "XS", Cols: 100,
		})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("post-drain submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("inflight slots never freed after the slow job completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerByteRateShed: draining the token bucket sheds frames with
// typed errors and keeps the session open.
func TestServerByteRateShed(t *testing.T) {
	// The bucket holds one frame of the server's own bound: at 64 bytes,
	// room for the handshake and an error frame, but only four pings.
	srv, addr := startServer(t, ServerConfig{MaxFrame: 64, Limiter: LimiterPolicy{BytesPerSec: 1}})
	defer srv.Shutdown(5 * time.Second)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Four pings (13 wire bytes each) fit the 64-byte bucket; at 1 B/s
	// refill the rest must shed — as ErrOverloaded, never a dead
	// connection.
	for i := 0; i < 4; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := cl.Ping(); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("ping %d past the bucket: want ErrOverloaded, got %v", i, err)
		}
	}
}

// TestServerSessionPoolShed: a connection beyond the fixed pool receives a
// typed overload frame instead of a silent close or a hang.
func TestServerSessionPoolShed(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{MaxSessions: 1})
	defer srv.Shutdown(5 * time.Second)

	first, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second dial: want ErrOverloaded, got %v", err)
	}

	// Releasing the slot re-admits new sessions.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl, err := Dial(addr)
		if err == nil {
			cl.Close()
			break
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("redial after release: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerVersionMismatch: a Hello speaking the wrong protocol version
// is rejected with CodeVersionMismatch before any other processing.
func TestServerVersionMismatch(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	defer srv.Shutdown(5 * time.Second)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Hello{Version: ProtoVersion + 7, Client: "old"}, 0); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ef, ok := reply.(*ErrorFrame)
	if !ok || ef.Code != CodeVersionMismatch {
		t.Fatalf("want CodeVersionMismatch error frame, got %#v", reply)
	}
	if !errors.Is(ef.Err(), ErrVersionMismatch) {
		t.Fatalf("frame error not typed: %v", ef.Err())
	}
}

// TestServerGarbageHandshake: a non-Hello first frame and a malformed
// frame both earn a typed BadRequest reply, not a hang or a panic.
func TestServerGarbageHandshake(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	defer srv.Shutdown(5 * time.Second)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Ping{ReqID: 1}, 0); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ef, ok := reply.(*ErrorFrame); !ok || ef.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %#v", reply)
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.Write([]byte{0, 0, 0, 1, 0xEE}) // unknown message type
	reply2, err := ReadFrame(conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ef, ok := reply2.(*ErrorFrame); !ok || ef.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %#v", reply2)
	}
}

// TestServerIdleTimeout: an idle session is closed once the timeout
// elapses, and the slot returns to the pool.
func TestServerIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{MaxSessions: 1, IdleTimeout: Duration(50 * time.Millisecond)})
	defer srv.Shutdown(5 * time.Second)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(150 * time.Millisecond)
	if err := cl.Ping(); err == nil {
		t.Fatal("ping succeeded on an idle-closed session")
	}
	// The reclaimed slot admits a fresh session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl2, err := Dial(addr)
		if err == nil {
			cl2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial after idle close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerStatusCancelMetrics exercises the remaining request types over
// a live connection.
func TestServerStatusCancelMetrics(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	job, arrival, resCh, err := cl.Submit(JobSpecWire{Tenant: "st", Script: "LinregDS", Size: "XS", Cols: 100})
	if err != nil {
		t.Fatal(err)
	}
	if arrival < 0 {
		t.Fatalf("arrival %g", arrival)
	}
	ack, err := cl.Status(job)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Tenant != "st" || ack.State == "" {
		t.Fatalf("status ack: %+v", ack)
	}
	if _, err := cl.Status(9999); err == nil || !strings.Contains(err.Error(), "9999") {
		t.Fatalf("unknown-job status: %v", err)
	}
	if _, err := cl.Cancel(job); err != nil {
		t.Fatal(err)
	}
	res, ok := <-resCh
	if !ok || res == nil {
		t.Fatal("no result frame after terminal state")
	}
	if res.Job != job {
		t.Fatalf("result for job %d, want %d", res.Job, job)
	}

	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "server.jobs.submitted" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics snapshot missing server.jobs.submitted: %+v", snap.Counters)
	}

	// A submit rejected during drain is a typed shutting-down error, and
	// shutdown still yields the final report.
	rep := srv.Shutdown(5 * time.Second)
	if rep == nil || len(rep.Tenants) != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestServerNonFiniteInput: a NaN sparsity or a ±Inf float parameter would
// run, but the op log is JSON and could never be written again. Each is a
// CodeBadRequest on a session that stays open, and the daemon's log still
// writes and replays to the live report.
func TestServerNonFiniteInput(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	source := func(v float64) JobSpecWire {
		return JobSpecWire{Tenant: "inf", Source: "print($x)", Params: []Param{{Key: "x", Kind: ParamFloat, F: v}}}
	}
	for _, bad := range []JobSpecWire{
		{Tenant: "nan", Script: "LinregDS", Size: "XS", Cols: 100, Sparsity: math.NaN()},
		{Tenant: "nan", Script: "LinregDS", Sparsity: math.Inf(1)},
		source(math.Inf(1)), source(math.Inf(-1)), source(math.NaN()),
	} {
		_, _, _, err := c.Submit(bad)
		if err == nil || !strings.Contains(err.Error(), CodeBadRequest.String()) {
			t.Errorf("%+v: want a %s error, got %v", bad, CodeBadRequest, err)
		}
	}
	_, _, done, err := c.Submit(JobSpecWire{Tenant: "good", Script: "LinregDS", Size: "XS", Cols: 100})
	if err != nil {
		t.Fatalf("session did not survive the rejections: %v", err)
	}
	if res := <-done; res == nil || res.Flags&FlagServed == 0 {
		t.Fatalf("good job not served: %+v", res)
	}

	live := srv.Shutdown(5 * time.Second)
	var log bytes.Buffer
	if err := srv.Log().WriteJSON(&log); err != nil {
		t.Fatalf("op log unwritable: %v", err)
	}
	recorded, err := ReadRecordLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(recorded)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a, b := reportJSON(t, live), reportJSON(t, replayed); len(live.Tenants) != 1 || string(a) != string(b) {
		t.Fatalf("live and replayed reports differ, or %d tenants != 1", len(live.Tenants))
	}
}
