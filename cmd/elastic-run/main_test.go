package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The smoke tests exercise the built binary end to end: flag parsing, exit
// codes, and the -json summary shape that scripts and CI depend on.

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "elastic-run-test")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "elastic-run")
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

// run executes the binary and returns stdout, stderr and the exit code.
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
	out, errOut, code := run(t, "-program", "LinregDS", "-size", "XS", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var sum struct {
		Program    string  `json:"program"`
		Scenario   string  `json:"scenario"`
		SimSeconds float64 `json:"sim_seconds"`
		Execution  struct {
			Instructions int `json:"instructions"`
		} `json:"execution"`
	}
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out)
	}
	if sum.Program != "LinregDS" {
		t.Errorf("program = %q", sum.Program)
	}
	if !strings.Contains(sum.Scenario, "XS") {
		t.Errorf("scenario = %q, want an XS scenario", sum.Scenario)
	}
	if sum.SimSeconds <= 0 {
		t.Errorf("sim_seconds = %v, want > 0", sum.SimSeconds)
	}
	if sum.Execution.Instructions <= 0 {
		t.Errorf("instructions = %d, want > 0", sum.Execution.Instructions)
	}
}

func TestBadFlagsExitCode(t *testing.T) {
	cases := [][]string{
		{"-program", "Bogus"},
		{"-program", "LinregDS", "-size", "XXL"},
		{"-program", "LinregDS", "-size", "XS", "-node-fail", "garbage"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if _, errOut, code := run(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut)
		}
	}
}

func TestExplainPrintsPlan(t *testing.T) {
	out, errOut, code := run(t, "-program", "LinregDS", "-size", "XS", "-explain")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "PROGRAM (resources") {
		t.Errorf("-explain output missing plan header:\n%s", out)
	}
}

// TestJSONSummaryDeterministic: identical invocations print the same summary
// except for the one wall-clock field. The second input is the trace
// determinism gate — optimization, runtime adaptation, a node loss and task
// failures, all on the simulated clock — and also writes byte-identical
// Chrome traces.
func TestJSONSummaryDeterministic(t *testing.T) {
	inputs := []struct {
		traced bool
		args   []string
	}{
		{false, []string{"-program", "LinregCG", "-size", "XS"}},
		{true, []string{"-program", "MLogreg", "-size", "M", "-optimize", "-adapt",
			"-node-fail", "0@100", "-task-fail", "0.03"}},
	}
	for _, in := range inputs {
		decode := func() (map[string]interface{}, []byte) {
			args := append(in.args, "-json")
			tr := filepath.Join(t.TempDir(), "trace.json")
			if in.traced {
				args = append(args, "-trace", tr)
			}
			out, errOut, code := run(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", in.args, code, errOut)
			}
			var m map[string]interface{}
			if err := json.Unmarshal([]byte(out), &m); err != nil {
				t.Fatalf("%v: bad JSON: %v", in.args, err)
			}
			delete(m, "opt_wall_seconds") // the only wall-clock field
			trace, _ := os.ReadFile(tr)
			return m, trace
		}
		a, ta := decode()
		b, tb := decode()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: summaries differ across identical runs:\n%v\nvs\n%v", in.args, a, b)
		}
		if in.traced && (len(ta) == 0 || !bytes.Equal(ta, tb)) {
			t.Errorf("%v: traces empty or different across identical runs", in.args)
		}
	}
}

// TestTextAndJSONSameSimTime: -json only changes how a run is reported, not
// what it charges, so an adaptive run with node losses prints the same
// simulated seconds in both forms (compared at the text's one decimal).
func TestTextAndJSONSameSimTime(t *testing.T) {
	args := []string{"-program", "MLogreg", "-size", "M", "-cols", "100", "-sparsity", "0.01",
		"-optimize", "-adapt", "-node-fail", "1@20,2@60"}
	text, errOut, code := run(t, args...)
	if code != 0 {
		t.Fatalf("text run: exit %d, stderr: %s", code, errOut)
	}
	var textSecs string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "elapsed:"); ok {
			textSecs = strings.Fields(rest)[0]
		}
	}
	if textSecs == "" {
		t.Fatalf("no elapsed line in:\n%s", text)
	}
	js, errOut, code := run(t, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("-json run: exit %d, stderr: %s", code, errOut)
	}
	var sum struct {
		SimSeconds float64 `json:"sim_seconds"`
	}
	if err := json.Unmarshal([]byte(js), &sum); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if jsonSecs := fmt.Sprintf("%.1f", sum.SimSeconds); jsonSecs != textSecs {
		t.Errorf("simulated seconds: text %s, -json %s", textSecs, jsonSecs)
	}
}
