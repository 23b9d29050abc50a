package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests for the optimizer entry point: flag validation, exit codes,
// and the -json summary consumed by the experiment scripts.

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "elastic-opt-test")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "elastic-opt")
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

func TestJSONSummaryShape(t *testing.T) {
	out, errOut, code := run(t, "-program", "LinregDS", "-size", "XS", "-points", "5", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var sum struct {
		Program string  `json:"program"`
		Config  string  `json:"config"`
		CPCores int     `json:"cp_cores"`
		EstCost float64 `json:"est_cost_seconds"`
		Effort  struct {
			Costings int `json:"costings"`
		} `json:"effort"`
	}
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out)
	}
	if sum.Program != "LinregDS" {
		t.Errorf("program = %q", sum.Program)
	}
	if sum.Config == "" {
		t.Error("config missing from summary")
	}
	if sum.CPCores < 1 {
		t.Errorf("cp_cores = %d, want >= 1", sum.CPCores)
	}
	if sum.EstCost <= 0 {
		t.Errorf("est_cost_seconds = %v, want > 0", sum.EstCost)
	}
	if sum.Effort.Costings <= 0 {
		t.Errorf("costings = %d, want > 0", sum.Effort.Costings)
	}
}

func TestBadFlagsExitCode(t *testing.T) {
	cases := [][]string{
		{"-program", "Bogus"},
		{"-program", "LinregDS", "-size", "XXL"},
		{"-program", "LinregDS", "-size", "XS", "-grid", "nope"},
		{"-program", "LinregDS", "-size", "XS", "-load", "1.5"},
		{"-program", "LinregDS", "-size", "XS", "-load", "-0.1"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if _, errOut, code := run(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut)
		}
	}
}

func TestPickedConfigDeterministic(t *testing.T) {
	pick := func() string {
		out, errOut, code := run(t, "-program", "LinregCG", "-size", "XS", "-points", "5", "-json")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut)
		}
		var sum struct {
			Config string `json:"config"`
		}
		if err := json.Unmarshal([]byte(out), &sum); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return sum.Config
	}
	if a, b := pick(), pick(); a != b {
		t.Errorf("optimizer picked %q then %q for identical inputs", a, b)
	}
}
