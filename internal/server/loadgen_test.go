package server

import (
	"testing"
	"time"
)

// TestLoadSessionSamplesEveryRequest: a session that cancels every job it
// submits records one latency sample per request it counts — a submit and
// the cancel that follows it are two samples, not one spanning both — and
// a negative CancelFraction cancels nothing, while 0 takes the default.
func TestLoadSessionSamplesEveryRequest(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{MaxSessions: 2})
	defer srv.Shutdown(5 * time.Second)
	for _, c := range []struct {
		name    string
		cancel  int
		cancels int
	}{
		{"cancel-every-job", 1, 6},
		{"no-cancels", -1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := LoadConfig{Addr: addr, SubmitEvery: 1, CancelFraction: c.cancel, Seed: 3}.withDefaults()
			st, lats, err := runSession(cfg, 0, 6)
			if err != nil {
				t.Fatal(err)
			}
			if st.Accepted != 6 || st.Cancels != c.cancels || st.Errors != 0 {
				t.Fatalf("accepted %d, canceled %d, errors %d; want 6, %d, 0", st.Accepted, st.Cancels, st.Errors, c.cancels)
			}
			if st.Requests != 6+c.cancels || len(lats) != st.Requests {
				t.Errorf("%d requests and %d latency samples; want %d of each", st.Requests, len(lats), 6+c.cancels)
			}
		})
	}
	if got := (LoadConfig{}).withDefaults().CancelFraction; got != 16 {
		t.Errorf("CancelFraction 0 defaults to %d, want 16", got)
	}
}
