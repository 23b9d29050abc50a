package bench

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestFiguresGolden pins everything `elastic-bench -exp all` prints before
// "Failure sweep:" in full mode: Figures 1-18, Tables 1-6 and the
// ablations. Every time a figure reports is simulated, so the output repeats
// byte for byte; the only wall-clock columns, which time the optimizer's
// search itself, are masked. Refresh intentionally with
//
//	go test ./internal/bench -run TestFiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	s := shared()
	if s.figuresErr != nil {
		t.Fatalf("paper figures: %v\noutput so far:\n%s", s.figuresErr, s.figures)
	}
	checkGolden(t, "figures.golden", []byte(maskWallTime(s.figures)))
}

// wallColumns names the sections that print the optimizer's measured
// search time, and how many leading columns of their rows are not wall
// time: Table 3's Opt.Time and % columns, both parts of Figure 18, and
// Ablation D's opt time column.
var wallColumns = []struct {
	title string
	keep  int
}{
	{"Table 3:", 4},
	{"Figure 18", 1},
	{"Ablation D:", 3},
}

// maskWallTime replaces the wall-clock columns of every row in the
// wallColumns sections, and the padding before them, with " <wall>". A
// section runs from its title to the next blank line; the line after each
// title is the column header and is kept.
func maskWallTime(out string) string {
	lines := strings.Split(out, "\n")
	var row *regexp.Regexp
	header := false
	for i, line := range lines {
		if line == "" {
			row = nil
			continue
		}
		if header {
			header = false
			continue
		}
		for _, c := range wallColumns {
			if strings.HasPrefix(line, c.title) {
				row = regexp.MustCompile(fmt.Sprintf(`^(\s*(?:\S+\s+){%d}\S+)\s.*$`, c.keep-1))
				header = true
			}
		}
		if row != nil && !header {
			lines[i] = row.ReplaceAllString(line, "${1} <wall>")
		}
	}
	return strings.Join(lines, "\n")
}
