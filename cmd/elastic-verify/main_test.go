package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests for the verification entry point: the -json report, the exit
// codes, and the pinned output of the full differential run.

var (
	binPath string
	update  = flag.Bool("update", false, "rewrite testdata/corpus.golden")
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "elastic-verify-test")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "elastic-verify")
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

func TestJSONReport(t *testing.T) {
	out, errOut, code := run(t, "-corpus=false", "-fuzz", "1", "-fuzz-loops", "0", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var rep struct {
		Seed     int64 `json:"seed"`
		Programs []struct {
			Program  string            `json:"program"`
			Configs  []string          `json:"configs"`
			Findings []json.RawMessage `json:"findings"`
			Ops      int               `json:"ops"`
		} `json:"programs"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out)
	}
	if rep.Seed != 1 || len(rep.Programs) != 1 {
		t.Fatalf("seed %d, %d programs; want 1 and 1", rep.Seed, len(rep.Programs))
	}
	p := rep.Programs[0]
	if len(p.Configs) == 0 || p.Ops == 0 || len(p.Findings) != 0 {
		t.Errorf("program %s: %d configs, %d ops, %d findings", p.Program, len(p.Configs), p.Ops, len(p.Findings))
	}
}

func TestBadFlagsExitCode(t *testing.T) {
	for _, args := range [][]string{
		{"-ulp", "1"},
		{"-no-ref"},
		{"-fuzz", "-1"},
		{"-corpus=false", "-fuzz", "0", "-fuzz-loops", "0"},
		{"extra"},
	} {
		if _, _, code := run(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestCorpusGolden pins the output of `make verify-corpus`: every corpus and
// fuzz program's configurations, outputs, audited ops and largest ULP
// difference. A change to the compiler, the optimizer or the runtime that
// moves any of them fails here; rewrite with -update only when it is meant
// to, and read the diff.
func TestCorpusGolden(t *testing.T) {
	out, errOut, code := run(t, "-corpus", "-fuzz", "25", "-fuzz-loops", "10", "-seed", "1", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	got := []byte(out + errOut)
	path := filepath.Join("testdata", "corpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n%s", path, diffLines(string(want), string(got)))
	}
}

// diffLines renders the differing lines of a golden mismatch.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("  want: " + wl + "\n  got:  " + gl + "\n")
		}
	}
	return sb.String()
}
