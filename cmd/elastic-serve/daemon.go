// Daemon mode: -listen turns elastic-serve from a batch simulator into a
// long-running network service. Clients submit DML jobs over the binary
// protocol; a sequencer maps their wall-clock arrivals onto deterministic
// simulated arrival times; SIGTERM (or SIGINT) drains gracefully and
// prints the same per-tenant report a batch run would. -record captures
// the op log so `elastic-serve -replay` can reproduce the run
// byte-identically offline — the server determinism gate in CI.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"elasticml/internal/obs"
	"elasticml/internal/server"
	"elasticml/internal/workload"
)

// daemonSection is the run description's "daemon" object: the server's own
// configuration plus the two values that belong to the process around it.
type daemonSection struct {
	server.ServerConfig
	// Gap is the simulated seconds between assigned arrivals (0 = default).
	Gap float64 `json:"gap"`
	// DrainTimeout bounds the wait for inflight jobs on shutdown.
	DrainTimeout server.Duration `json:"drain_timeout"`
}

func parseDaemonSection(raw json.RawMessage) (daemonSection, error) {
	d := daemonSection{DrainTimeout: server.Duration(30 * time.Second)}
	if len(raw) == 0 {
		return d, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("scenario: daemon section: %w", err)
	}
	return d, nil
}

// runDaemon serves until SIGTERM/SIGINT, then drains and reports.
func runDaemon(spec *workload.RunSpec) error {
	dc, err := parseDaemonSection(spec.Daemon)
	if err != nil {
		return err
	}
	tr := obs.New(false)
	spec.Trace = tr
	seq, err := server.NewSequencer(spec.Cluster, spec.Options, dc.Gap)
	if err != nil {
		return err
	}
	srv := server.NewServer(seq, dc.ServerConfig, tr.Metrics())
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		go http.Serve(hln, server.NewHTTPHandler(tr.Metrics()))
		fmt.Fprintf(os.Stderr, "elastic-serve: metrics/pprof on http://%s\n", hln.Addr())
	}
	fmt.Fprintf(os.Stderr, "elastic-serve: listening on %s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "elastic-serve: %v, draining\n", sig)
	case err := <-errc:
		if err != server.ErrServerClosed {
			return err
		}
	}
	rep := srv.Shutdown(time.Duration(dc.DrainTimeout))

	if err := printReport(rep, nil); err != nil {
		return err
	}
	if *record != "" {
		return obs.WriteFile(*record, srv.Log().WriteJSON)
	}
	return nil
}

// runReplay reproduces a recorded daemon run offline.
func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	log, err := server.ReadRecordLog(f)
	f.Close()
	if err != nil {
		return err
	}
	rep, err := server.Replay(log)
	if err != nil {
		return err
	}
	return printReport(rep, nil)
}
