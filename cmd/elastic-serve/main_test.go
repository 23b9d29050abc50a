package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"elasticml/internal/server"
	"elasticml/internal/workload"
	"elasticml/scenarios"
)

// Smoke tests for the workload service entry point: run-description
// validation, the JSON report shape, and the determinism gate over every
// committed run description.

var (
	binPath string
	tmpDir  string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "elastic-serve-test")
	if err != nil {
		os.Exit(1)
	}
	tmpDir = dir
	binPath = filepath.Join(dir, "elastic-serve")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return out.String(), errOut.String(), code
}

// scenario writes a run description under t.TempDir() and returns its path.
func scenario(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// committed copies one run description out of the scenarios package — where
// elastic-bench's sweeps read them too — to a file the binary can open.
func committed(t *testing.T, name string) string {
	t.Helper()
	data, err := fs.ReadFile(scenarios.FS, name)
	if err != nil {
		t.Fatal(err)
	}
	return scenario(t, string(data))
}

// nodeFailScenario is the demo workload losing node 1 at t=25s.
const nodeFailScenario = `{
	"chaos": {"groups": [{"nodes": [1], "at": 25}]},
	"generate": {"tenants": 10, "seed": 42, "mean_gap": 3}
}`

func TestDemoWorkload(t *testing.T) {
	out, errOut, code := run(t, "-scenario", scenario(t, nodeFailScenario), "-tenants", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"tenant-00", "plan cache:", "makespan"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONReportShape(t *testing.T) {
	out, errOut, code := run(t, "-tenants", "6", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var rep struct {
		Tenants []struct {
			Tenant string  `json:"tenant"`
			Served bool    `json:"served"`
			Config string  `json:"config"`
			Lat    float64 `json:"latency"`
		} `json:"tenants"`
		P50   float64 `json:"p50_latency"`
		P95   float64 `json:"p95_latency"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(out[idx:]), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Tenants) != 6 {
		t.Fatalf("want 6 tenants, got %d", len(rep.Tenants))
	}
	if rep.Cache.Hits < 1 {
		t.Errorf("demo workload should hit the plan cache, got %d hits", rep.Cache.Hits)
	}
	if rep.P50 > rep.P95 {
		t.Errorf("p50 %g > p95 %g", rep.P50, rep.P95)
	}
}

// TestDeterministicReports is the determinism gate: every run description
// committed under scenarios/ decodes strictly (its daemon section too), and
// every one that carries jobs writes a byte-identical report, Chrome trace
// and -metrics stdout on two runs under each scheduling policy.
func TestDeterministicReports(t *testing.T) {
	var runnable []string
	err := fs.WalkDir(scenarios.FS, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(name) != ".json" {
			return err
		}
		f, err := scenarios.FS.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		spec, err := workload.LoadRunSpec(f)
		if err != nil {
			t.Errorf("scenarios/%s: %v", name, err)
			return nil
		}
		if _, err := parseDaemonSection(spec.Daemon); err != nil {
			t.Errorf("scenarios/%s: %v", name, err)
		}
		if spec.Generate != nil || len(spec.Jobs) > 0 {
			runnable = append(runnable, name)
		} else if len(spec.Daemon) == 0 {
			t.Errorf("scenarios/%s: neither jobs nor a daemon section", name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runnable) < 5 {
		t.Fatalf("only %d job-carrying run descriptions found under scenarios/: %v", len(runnable), runnable)
	}
	for _, name := range runnable {
		scen := committed(t, name)
		for _, pol := range []string{"fifo", "fair", "regret"} {
			t.Run(name+"/"+pol, func(t *testing.T) {
				// outputs runs the file and returns report, trace and stdout.
				outputs := func() [3][]byte {
					dir := t.TempDir()
					js, tr := filepath.Join(dir, "report.json"), filepath.Join(dir, "trace.json")
					out, errOut, code := run(t, "-scenario", scen, "-policy", pol,
						"-json", js, "-trace", tr, "-metrics")
					if code != 0 {
						t.Fatalf("exit %d: %s", code, errOut)
					}
					report, err := os.ReadFile(js)
					if err != nil {
						t.Fatal(err)
					}
					trace, err := os.ReadFile(tr)
					if err != nil {
						t.Fatal(err)
					}
					return [3][]byte{report, trace, []byte(out)}
				}
				a, b := outputs(), outputs()
				for i, what := range []string{"report", "trace", "-metrics stdout"} {
					if len(a[i]) == 0 {
						t.Errorf("empty %s", what)
					}
					if !bytes.Equal(a[i], b[i]) {
						t.Errorf("%s differs between two runs", what)
					}
				}
			})
		}
	}
}

func TestScenarioFile(t *testing.T) {
	scen := scenario(t, `{"jobs":[
		{"tenant":"a","script":"LinregDS","size":"XS","arrival":0},
		{"tenant":"b","script":"LinregDS","size":"XS","arrival":1}
	]}`)
	out, errOut, code := run(t, "-scenario", scen)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "a ") || !strings.Contains(out, "b ") {
		t.Errorf("scenario tenants missing from report:\n%s", out)
	}
}

// TestReadmeRunDescription decodes the annotated run description in the
// repository README — with its // comments stripped — as strictly as
// -scenario does, so a documented key cannot drift from the decoder.
func TestReadmeRunDescription(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "```jsonc\n")
	if !ok {
		t.Fatal("README has no jsonc run-description block")
	}
	block, _, _ = strings.Cut(block, "```")
	var doc strings.Builder
	for _, line := range strings.Split(block, "\n") {
		doc.WriteString(stripLineComment(line))
		doc.WriteByte('\n')
	}
	spec, err := workload.LoadRunSpec(strings.NewReader(doc.String()))
	if err != nil {
		t.Fatalf("README run description: %v", err)
	}
	if _, err := parseDaemonSection(spec.Daemon); err != nil {
		t.Errorf("README daemon section: %v", err)
	}
	if err := spec.Chaos.Validate(spec.Cluster.Nodes); err != nil {
		t.Errorf("README chaos plan: %v", err)
	}
	for i, sj := range spec.Jobs {
		if _, err := sj.Resolve(); err != nil {
			t.Errorf("README job %d: %v", i, err)
		}
	}
}

// stripLineComment drops a // comment that starts outside a JSON string.
func stripLineComment(line string) string {
	inString := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && c == '/' && strings.HasPrefix(line[i:], "//"):
			return line[:i]
		}
	}
	return line
}

// TestBadInput: bad flag values and malformed run descriptions exit
// non-zero with one "elastic-serve:" line that names the fault — no panic,
// no usage dump.
func TestBadInput(t *testing.T) {
	gen := `"generate": {"tenants": 4, "seed": 42, "mean_gap": 3}`
	cases := map[string]struct {
		args []string
		want string // the substring the error line must contain
	}{
		"zero tenants":     {[]string{"-tenants", "0"}, "generate.tenants must be positive"},
		"unknown policy":   {[]string{"-policy", "lottery"}, `unknown policy "lottery"`},
		"missing file":     {[]string{"-scenario", filepath.Join(tmpDir, "missing.json")}, "no such file"},
		"tenants vs jobs":  {[]string{"-tenants", "3", "-scenario", scenario(t, `{"jobs": [{"script": "GLM"}]}`)}, "override the generate section"},
		"truncated":        {[]string{"-scenario", scenario(t, `{"jobs": [{`)}, "unexpected EOF"},
		"unknown field":    {[]string{"-scenario", scenario(t, `{"chaos_flap": "1@45:6", `+gen+`}`)}, `unknown field "chaos_flap"`},
		"unknown in chaos": {[]string{"-scenario", scenario(t, `{"chaos": {"flap": []}, `+gen+`}`)}, `unknown field "flap"`},
		"no jobs":          {[]string{"-scenario", scenario(t, `{"policy": "fair"}`)}, "no jobs"},
		"jobs + generate":  {[]string{"-scenario", scenario(t, `{"jobs": [{"script": "GLM"}], `+gen+`}`)}, "both jobs and generate"},
		"generate kind":    {[]string{"-scenario", scenario(t, `{"generate": {"kind": "zap", "tenants": 4}}`)}, `unknown generate.kind "zap"`},
		"file policy":      {[]string{"-scenario", scenario(t, `{"policy": "sometimes", `+gen+`}`)}, `unknown policy "sometimes"`},
		"recovery kind":    {[]string{"-scenario", scenario(t, `{"recovery": {"kind": "hope"}, `+gen+`}`)}, `unknown recovery kind "hope"`},
		"negative retries": {[]string{"-scenario", scenario(t, `{"recovery": {"max_retries": -2}, `+gen+`}`)}, "negative recovery.max_retries"},
		"bad size":         {[]string{"-scenario", scenario(t, `{"cluster": {"mem_per_node": "wat"}, `+gen+`}`)}, `bad size "wat"`},
		"size type":        {[]string{"-scenario", scenario(t, `{"cluster": {"mem_per_node": true}, `+gen+`}`)}, "cannot unmarshal bool"},
		// Node 9 does not exist on the 2-node default cluster.
		"fail node range": {[]string{"-scenario", scenario(t, `{"chaos": {"groups": [{"nodes": [9], "at": 5}]}, `+gen+`}`)}, "group failure targets node 9 of 2"},
		"flap node range": {[]string{"-scenario", scenario(t, `{"chaos": {"flaps": [{"node": 9, "at": 45, "restore_after": 6}]}, `+gen+`}`)}, "flap targets node 9 of 2"},
		"flap no restore": {[]string{"-scenario", scenario(t, `{"chaos": {"flaps": [{"node": 1, "at": 45}]}, `+gen+`}`)}, "must restore after > 0s"},
		"negative time":   {[]string{"-scenario", scenario(t, `{"chaos": {"groups": [{"nodes": [0], "at": -5}]}, `+gen+`}`)}, "negative time"},
		"slow factor < 1": {[]string{"-scenario", scenario(t, `{"chaos": {"slow_nodes": [{"node": 0, "at": 15, "factor": 0.5}]}, `+gen+`}`)}, "factor 0.5 < 1"},
		"storm no gap":    {[]string{"-scenario", scenario(t, `{"chaos": {"storm": {"start": 55, "failures": 3}}, `+gen+`}`)}, "storm mean gap 0"},
		"tiny tick":       {[]string{"-scenario", scenario(t, `{"elastic": {"tick": 1e-12}, `+gen+`}`)}, "elastic.tick must be 0 (off) or at least 1"},
		"negative tick":   {[]string{"-scenario", scenario(t, `{"elastic": {"tick": -5}, `+gen+`}`)}, "got -5"},
	}
	for name, c := range cases {
		out, errOut, code := run(t, c.args...)
		if code == 0 {
			t.Errorf("%s: want non-zero exit", name)
		}
		if out != "" {
			t.Errorf("%s: unexpected stdout: %q", name, out)
		}
		lines := strings.Split(strings.TrimRight(errOut, "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "elastic-serve:") {
			t.Errorf("%s: want one 'elastic-serve:' stderr line, got %q", name, errOut)
		} else if !strings.Contains(lines[0], c.want) {
			t.Errorf("%s: error line %q does not contain %q", name, lines[0], c.want)
		}
	}
}

func TestTraceOutput(t *testing.T) {
	tr := filepath.Join(tmpDir, "trace.json")
	if _, errOut, code := run(t, "-tenants", "4", "-trace", tr, "-metrics"); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	data, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"workload"`) {
		t.Error("trace missing workload layer events")
	}
}

// TestChaosScenarioRun exercises every chaos regime plus the recovery and
// breaker policies through the CLI and checks the chaos summary line.
func TestChaosScenarioRun(t *testing.T) {
	out, errOut, code := run(t, "-scenario", committed(t, "chaos_mix.json"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"chaos:", "node restores", "wasted work", "breaker:"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos run missing %q:\n%s", want, out)
		}
	}
}

// freePort reserves a loopback port for the daemon tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDaemonRecordReplay is the CI server-determinism gate in-process: a live
// daemon run under seeded load, drained with SIGTERM, replays from its
// recorded op log to a byte-identical JSON report.
func TestDaemonRecordReplay(t *testing.T) {
	addr := freePort(t)
	opsPath := filepath.Join(tmpDir, "daemon-ops.json")
	livePath := filepath.Join(tmpDir, "daemon-live.json")
	replayPath := filepath.Join(tmpDir, "daemon-replay.json")

	// The committed daemon description: a non-zero tick and a non-default
	// policy, which must both reach the op log for the replay to match.
	cmd := exec.Command(binPath, "-scenario", committed(t, "daemon.json"), "-listen", addr,
		"-record", opsPath, "-json", livePath)
	var serveErr strings.Builder
	cmd.Stderr = &serveErr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the listener, then drive seeded load over 4 sessions.
	waitListening(t, addr, &serveErr)
	st, err := server.RunLoad(server.LoadConfig{
		Addr: addr, Sessions: 4, Requests: 600, Seed: 3,
		SubmitEvery: 12, WaitResults: true,
	})
	if err != nil {
		t.Fatalf("load: %v (daemon stderr: %s)", err, serveErr.String())
	}
	if st.Errors != 0 || st.Accepted != st.Submits || st.Results != st.Accepted {
		t.Fatalf("load stats: %+v", st)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v; stderr: %s", err, serveErr.String())
	}

	if _, errOut, code := run(t, "-replay", opsPath, "-json", replayPath); code != 0 {
		t.Fatalf("replay: exit %d: %s", code, errOut)
	}
	live, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(replayPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 || !bytes.Equal(live, replayed) {
		t.Fatal("live and replayed daemon reports differ")
	}
}

// waitListening polls until the daemon accepts connections on addr.
func waitListening(t *testing.T, addr string, serveErr *strings.Builder) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stderr: %s", serveErr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestModeFlags: a flag the selected mode would ignore is refused with one
// "elastic-serve:" line that names it, before anything runs or is written —
// -replay takes only -json, -trace and -metrics need a batch run, -http and
// -record need -listen. The forms CI and README use are accepted.
func TestModeFlags(t *testing.T) {
	ops := filepath.Join("..", "..", "internal", "server", "testdata", "legacy_workers_ops.json")
	addr := "256.256.256.256:1" // unbindable: a daemon that got past the check fails, not hangs
	refused := t.TempDir()
	f := filepath.Join(refused, "f") // every file a refused run is handed
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-listen", addr, "-trace", f}, "-trace needs a batch run"},
		{[]string{"-listen", addr, "-metrics"}, "-metrics needs a batch run"},
		{[]string{"-replay", ops, "-policy", "regret"}, "-policy does not apply to -replay"},
		{[]string{"-replay", ops, "-trace", f}, "-trace does not apply to -replay"},
		{[]string{"-replay", ops, "-metrics"}, "-metrics does not apply to -replay"},
		{[]string{"-replay", ops, "-scenario", f}, "-scenario does not apply to -replay"},
		{[]string{"-replay", ops, "-tenants", "3"}, "-tenants does not apply to -replay"},
		{[]string{"-replay", ops, "-seed", "3"}, "-seed does not apply to -replay"},
		{[]string{"-replay", ops, "-listen", addr}, "-listen does not apply to -replay"},
		{[]string{"-replay", ops, "-http", addr}, "-http does not apply to -replay"},
		{[]string{"-replay", ops, "-record", f}, "-record does not apply to -replay"},
		{[]string{"-record", f}, "-record needs -listen"},
		{[]string{"-http", ":7556"}, "-http needs -listen"},
		{[]string{"-tenants", "4", "-json", f, "-record", f, "-http", ":7556"}, "-http needs -listen"},
	} {
		out, errOut, code := run(t, c.args...)
		if code == 0 || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want a refusal", c.args, code, out)
		}
		if lines := strings.Split(strings.TrimRight(errOut, "\n"), "\n"); len(lines) != 1 ||
			!strings.HasPrefix(lines[0], "elastic-serve:") || !strings.Contains(lines[0], c.want) {
			t.Errorf("%v: stderr %q, want one elastic-serve: line containing %q", c.args, errOut, c.want)
		}
	}
	if written, _ := os.ReadDir(refused); len(written) != 0 {
		t.Errorf("refused runs wrote %d files", len(written))
	}

	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-scenario", committed(t, "demo_nodefail.json")},
		{"-scenario", committed(t, "burst.json"), "-policy", "regret"},
		{"-tenants", "4", "-seed", "7", "-json", path("batch.json"), "-trace", path("trace.json"), "-metrics"},
		{"-replay", ops, "-json", path("replay.json")},
	} {
		if _, errOut, code := run(t, args...); code != 0 {
			t.Errorf("%v: exit %d: %s", args, code, errOut)
		}
	}
	for _, name := range []string{"batch.json", "trace.json", "replay.json"} {
		if _, err := os.Stat(path(name)); err != nil {
			t.Errorf("accepted run wrote no %s: %v", name, err)
		}
	}

	// The daemon form: it listens, drains on SIGTERM and writes its files.
	addr = freePort(t)
	cmd := exec.Command(binPath, "-scenario", committed(t, "daemon.json"), "-listen", addr,
		"-http", freePort(t), "-record", path("ops.json"), "-json", path("live.json"))
	var serveErr strings.Builder
	cmd.Stderr = &serveErr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	waitListening(t, addr, &serveErr)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v; stderr: %s", err, serveErr.String())
	}
	for _, name := range []string{"ops.json", "live.json"} {
		if _, err := os.Stat(path(name)); err != nil {
			t.Errorf("daemon wrote no %s: %v", name, err)
		}
	}
}

// TestDaemonBadFlags: daemon/replay mode failures are one-line non-zero
// exits, not panics or usage dumps.
func TestDaemonBadFlags(t *testing.T) {
	cases := [][]string{
		{"-replay", filepath.Join(tmpDir, "missing-ops.json")},
		{"-listen", "256.256.256.256:1"},
		{"-listen", "127.0.0.1:0", "-scenario", scenario(t, `{"daemon": {"idle_timeout": 120}}`)},
		{"-listen", "127.0.0.1:0", "-scenario", scenario(t, `{"daemon": {"rate_limit": 1}}`)},
	}
	for _, args := range cases {
		_, errOut, code := run(t, args...)
		if code == 0 {
			t.Errorf("%v: want non-zero exit", args)
		}
		if strings.Contains(errOut, "panic") || strings.Contains(errOut, "Usage") {
			t.Errorf("%v: noisy failure output:\n%s", args, errOut)
		}
	}
}

// TestNaiveRecoveryRuns checks the alternate policy spellings parse and run.
func TestNaiveRecoveryRuns(t *testing.T) {
	scen := scenario(t, `{
		"recovery": {"kind": "naive"},
		"breaker": {"enabled": true, "shed": true},
		"task_policy": {"speculative": false},
		"generate": {"tenants": 4, "seed": 42, "mean_gap": 3}
	}`)
	if _, errOut, code := run(t, "-scenario", scen); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
}
