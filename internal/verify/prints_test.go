package verify

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/prints.golden")

// TestCorpusPrintsGolden pins what each Corpus program prints when it runs
// in value mode (DefaultConfigs' first configuration). The harness compares
// runs with each other and with RunReference, which evaluates the compiled
// DAG too, so a compile that changes what a program computes passes it;
// the print stream, which the scripts' own loop counters and objective
// values make, does not.
func TestCorpusPrintsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, p := range Corpus() {
		hp, err := compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r := run(hp, p.Name, DefaultConfigs()[0], nil)
		if r.err != nil {
			t.Fatalf("%s: %v", p.Name, r.err)
		}
		got.WriteString("== " + p.Name + "\n" + r.prints)
	}
	path := filepath.Join("testdata", "prints.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < min(len(gl), len(wl))-1 && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("line %d of the corpus prints differs from %s (-update only when a program is meant to print otherwise):\n got %q\nwant %q",
			i+1, path, gl[i], wl[i])
	}
}
