// Command benchcompare runs the repo's benchmark (BENCHMARK.json) on a
// reference commit and on the working tree in alternating pairs and prints,
// per workload and end-to-end metric, each side's median and quartiles, the
// pairs the working tree won, and the ratio of the medians with its base,
// followed by each side's median proc.mallocs_per_op,
// proc.alloc_bytes_per_op and proc.gc_cpu_frac: bytes allocated, not
// allocation counts, set how often the collector runs.
//
//	go run ./tools/benchcompare -ref HEAD~1 [-pairs 10] [-workload all] [-seed 2]
//
// A metric whose reference runs spread wider than its bound (interquartile
// range over the median) reads "unresolved" rather than "within bound"
// unless every new run beats every reference run: such runs cannot tell a
// change within the bound from noise. It exits 1 if a median is worse than
// the reference beyond the metric's bound, or if any run reports
// correct=false or failed>0. The reference is
// unpacked with `git archive` into a temporary directory that is removed on
// exit; nothing is written inside the repository.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worse returns by what fraction of ref the value v is worse than it;
// negative when v is better.
func (d metricDef) worse(ref, v float64) float64 {
	if ref == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (ref - v) / ref
	}
	return (v - ref) / ref
}

// runLine is the last stdout line of one benchmark run.
type runLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runDoc is the JSON document a run prints before its last line; only the
// per-layer metrics of its run are read.
type runDoc struct {
	Runs []struct {
		Metrics map[string]float64 `json:"metrics"`
	} `json:"runs"`
}

// procMetrics are the per-layer allocation and collector metrics reported
// beside the end-to-end metrics. They are not gated.
var procMetrics = []string{"proc.mallocs_per_op", "proc.alloc_bytes_per_op", "proc.gc_cpu_frac"}

// side is one of the two programs compared.
type side struct{ name, dir, bin string }

func main() {
	var (
		ref      = flag.String("ref", "", "commit to compare the working tree against (required)")
		pairs    = flag.Int("pairs", 10, "pairs of runs per workload; the side that goes first alternates")
		workload = flag.String("workload", "all", "one workload of BENCHMARK.json, or all")
		seed     = flag.Int64("seed", 2, "benchmark seed, the same on both sides")
	)
	flag.Parse()
	tmp, err := os.MkdirTemp("", "benchcompare-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()
	ok, err := compare(tmp, *ref, *pairs, *workload, *seed)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
	}
	if err != nil || !ok {
		os.Exit(1)
	}
}

// compare builds both sides under tmp, runs the pairs, prints the tables,
// and reports whether every run was clean and no median regressed.
func compare(tmp, ref string, pairs int, workload string, seed int64) (bool, error) {
	if ref == "" || pairs < 1 {
		return false, fmt.Errorf("want -ref <commit> and -pairs >= 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if workload == "all" || workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return false, fmt.Errorf("BENCHMARK.json has no workload %q", workload)
	}

	// Each side is built from its own source tree and runs inside it.
	refDir := filepath.Join(tmp, "ref")
	if err := os.Mkdir(refDir, 0o755); err != nil {
		return false, err
	}
	if _, err := run(".", "sh", "-c", `git archive "$0" | tar -x -C "$1"`, ref, refDir); err != nil {
		return false, fmt.Errorf("unpack %s: %w", ref, err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return false, err
	}
	sides := [2]side{
		{"ref", refDir, filepath.Join(tmp, "bench-ref")},
		{"new", wd, filepath.Join(tmp, "bench-new")},
	}
	for _, s := range sides {
		if _, err := run(s.dir, "go", "build", "-o", s.bin, "./benchmark"); err != nil {
			return false, fmt.Errorf("build %s: %w", s.name, err)
		}
	}

	ok := true
	for _, w := range workloads {
		// vals[metric][side] holds one value per pair, procs[metric][side]
		// the procMetrics of the runs that report them.
		vals := make([][2][]float64, len(sp.EndToEnd))
		procs := make([][2][]float64, len(procMetrics))
		for p := 0; p < pairs; p++ {
			for k := 0; k < 2; k++ {
				i := (p + k) % 2 // even pairs run the reference first
				s := sides[i]
				out, err := run(s.dir, s.bin, "-workload", w, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(sp.RunSeconds), "-trace", "0")
				if err != nil {
					return false, fmt.Errorf("%s %s pair %d: %w", w, s.name, p+1, err)
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var rl runLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
					return false, fmt.Errorf("%s %s pair %d: last stdout line: %w", w, s.name, p+1, err)
				}
				if !rl.Correct || rl.Failed > 0 {
					fmt.Printf("%s %s pair %d: correct=%v failed=%d\n", w, s.name, p+1, rl.Correct, rl.Failed)
					ok = false
				}
				for m, d := range sp.EndToEnd {
					vals[m][i] = append(vals[m][i], rl.Metrics[d.Name].Value)
				}
				var doc runDoc
				if json.Unmarshal([]byte(strings.Join(lines[:len(lines)-1], "\n")), &doc) == nil && len(doc.Runs) == 1 {
					for m, name := range procMetrics {
						if v, ok := doc.Runs[0].Metrics[name]; ok {
							procs[m][i] = append(procs[m][i], v)
						}
					}
				}
			}
			fmt.Fprintf(os.Stderr, "%s: pair %d/%d done\n", w, p+1, pairs)
		}
		fmt.Printf("\n%s — %d pairs, seed %d, %g s runs, ref %s\n", w, pairs, seed, sp.RunSeconds, ref)
		fmt.Printf("  %-13s %-5s %-30s %-30s %-6s %s\n", "metric", "unit", "ref median [q1, q3]", "new median [q1, q3]", "won", "new/ref")
		for m, d := range sp.EndToEnd {
			if !report(d, vals[m][0], vals[m][1]) {
				ok = false
			}
		}
		for m, name := range procMetrics {
			fmt.Printf("  %s median: ref %s | new %s\n", name, median(procs[m][0]), median(procs[m][1]))
		}
		for m, d := range sp.EndToEnd {
			fmt.Printf("  %s runs: ref %s | new %s\n", d.Name, list(vals[m][0]), list(vals[m][1]))
		}
	}
	return ok, nil
}

// report prints one metric's row and reports whether the working tree's
// median is within the metric's bound of the reference's.
func report(d metricDef, ref, cur []float64) bool {
	verdict, won := judge(d, ref, cur)
	rm, rq1, rq3 := quartiles(ref)
	cm, cq1, cq3 := quartiles(cur)
	ratio := "n/a"
	if rm != 0 {
		ratio = fmt.Sprintf("%.3fx of %.4g %s", cm/rm, rm, d.Unit)
	}
	fmt.Printf("  %-13s %-5s %-30s %-30s %-6s %s — %s\n", d.Name, d.Unit,
		fmt.Sprintf("%.4g [%.4g, %.4g]", rm, rq1, rq3), fmt.Sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3),
		fmt.Sprintf("%d/%d", won, len(ref)), ratio, verdict)
	return !strings.HasPrefix(verdict, "WORSE")
}

// judge returns one metric's verdict and the pairs the working tree won.
func judge(d metricDef, ref, cur []float64) (verdict string, won int) {
	lost := 0
	for p := range ref {
		switch w := d.worse(ref[p], cur[p]); {
		case w < 0:
			won++
		case w > 0:
			lost++
		}
	}
	rm, rq1, rq3 := quartiles(ref)
	cm, _, _ := quartiles(cur)
	switch w := d.worse(rm, cm); {
	case w > d.Bound:
		return fmt.Sprintf("WORSE by %.0f%% (bound %.0f%%)", 100*w, 100*d.Bound), won
	case w < 0 && 10*won >= 9*(won+lost) && math.Abs(cm-rm) > rq3-rq1:
		// The gain rule: nine pairs in ten won, ties counting for neither,
		// and the medians further apart than the reference's own quartiles.
		return "better", won
	case rm != 0 && (rq3-rq1)/math.Abs(rm) > d.Bound && !separated(d, ref, cur):
		// The reference spreads wider than the bound, so only runs that
		// all beat it would tell a change from its noise.
		return "unresolved", won
	}
	return "within bound", won
}

// separated reports whether every run of cur beats every run of ref.
func separated(d metricDef, ref, cur []float64) bool {
	for _, r := range ref {
		for _, c := range cur {
			if d.worse(r, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// quartiles returns the median and the first and third quartiles, linearly
// interpolated between order statistics.
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

// median formats the median of v, or n/a for no values.
func median(v []float64) string {
	if len(v) == 0 {
		return "n/a"
	}
	med, _, _ := quartiles(v)
	return fmt.Sprintf("%.6g", med)
}

func list(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// run executes a command in dir and returns its stdout; on failure the
// error carries the tail of its stderr.
func run(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = "…" + msg[len(msg)-400:]
		}
		return "", fmt.Errorf("%s: %w: %s", filepath.Base(name), err, msg)
	}
	return stdout.String(), nil
}
