package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// SpanTotal aggregates the spans sharing one name on one layer.
type SpanTotal struct {
	Count int
	// Seconds is the summed span duration in simulated seconds.
	Seconds float64
}

// SpanTotals aggregates recorded spans of one layer by name. Begin/End
// pairs are matched LIFO per name; unbalanced begins contribute count but
// no duration.
func (t *Tracer) SpanTotals(layer Layer) map[string]SpanTotal {
	events := t.snapshot()
	totals := map[string]SpanTotal{}
	open := map[string][]float64{}
	for _, ev := range events {
		if ev.layer != layer {
			continue
		}
		switch ev.phase {
		case phaseComplete:
			agg := totals[ev.name]
			agg.Count++
			agg.Seconds += ev.dur
			totals[ev.name] = agg
		case phaseBegin:
			open[ev.name] = append(open[ev.name], ev.ts)
			agg := totals[ev.name]
			agg.Count++
			totals[ev.name] = agg
		case phaseEnd:
			stack := open[ev.name]
			if n := len(stack); n > 0 {
				agg := totals[ev.name]
				agg.Seconds += ev.ts - stack[n-1]
				totals[ev.name] = agg
				open[ev.name] = stack[:n-1]
			}
		}
	}
	return totals
}

// WriteSummary renders a per-layer, per-name aggregate of all recorded
// spans as sorted text — the flat human-readable trace digest.
func (t *Tracer) WriteSummary(w io.Writer) error {
	for _, layer := range []Layer{LayerCompile, LayerOptimize, LayerRuntime, LayerCluster, LayerAdapt, LayerWorkload} {
		totals := t.SpanTotals(layer)
		if len(totals) == 0 {
			continue
		}
		names := make([]string, 0, len(totals))
		for n := range totals {
			names = append(names, n)
		}
		sort.Strings(names)
		if _, err := fmt.Fprintf(w, "[%s]\n", layer); err != nil {
			return err
		}
		for _, n := range names {
			agg := totals[n]
			if _, err := fmt.Fprintf(w, "  %-40s x%-6d %10.3fs\n", n, agg.Count, agg.Seconds); err != nil {
				return err
			}
		}
	}
	return nil
}

// CostRow is one line of the predicted-vs-simulated per-operator table.
type CostRow struct {
	Op        string
	Predicted float64 // cost-model estimate (seconds)
	Simulated float64 // traced runtime charge (seconds)
	Count     int     // executed instruction count
}

// Error returns simulated - predicted.
func (r CostRow) Error() float64 { return r.Simulated - r.Predicted }

// CostTable joins per-operator cost-model predictions against the traced
// runtime spans: the validation loop closing the cost model against the
// simulator. Rows are sorted by simulated time, descending, ties by name.
func CostTable(predicted map[string]float64, simulated map[string]SpanTotal) []CostRow {
	seen := map[string]bool{}
	var rows []CostRow
	for op, p := range predicted {
		agg := simulated[op]
		rows = append(rows, CostRow{Op: op, Predicted: p, Simulated: agg.Seconds, Count: agg.Count})
		seen[op] = true
	}
	for op, agg := range simulated {
		if !seen[op] {
			rows = append(rows, CostRow{Op: op, Simulated: agg.Seconds, Count: agg.Count})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Simulated != rows[j].Simulated {
			return rows[i].Simulated > rows[j].Simulated
		}
		return rows[i].Op < rows[j].Op
	})
	return rows
}

// WriteCostTable renders the joined table.
func WriteCostTable(w io.Writer, rows []CostRow) error {
	if len(rows) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-40s %8s %12s %12s %12s\n",
		"operator", "count", "predicted_s", "simulated_s", "error_s"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f %+12.3f\n",
			r.Op, r.Count, r.Predicted, r.Simulated, r.Error()); err != nil {
			return err
		}
	}
	return nil
}

// ErrWriter wraps a writer, remembering the first write error so command
// output routed through fmt.Fprintf can be checked once at exit instead of
// at every call site. After the first error, writes are dropped.
type ErrWriter struct {
	W   io.Writer
	err error
}

// Write forwards to the underlying writer until the first error.
func (e *ErrWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.W.Write(p)
	if err != nil {
		e.err = err
		return len(p), nil
	}
	return n, nil
}

// Err returns the first write error, if any.
func (e *ErrWriter) Err() error { return e.err }

// WriteFile creates path and fills it with write (a trace's
// WriteChromeTrace, a report's WriteJSON), returning the first create,
// write or close error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
