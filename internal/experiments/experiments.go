// Package experiments contains one driver per table and figure of the
// paper's evaluation section, plus three ablations of its design choices,
// and nothing else: measurements of the served system live in Go
// benchmarks beside the code they time and in the HTTP workloads of
// BENCHMARK.json. Each experiment regenerates the corresponding rows/series
// (workload generation, parameter sweep, baselines, and the measurement
// itself) and returns a printable Report, which cmd/benchrunner prints.
//
// A timed figure (Figures 3 and 9-12, the sparse-storage ablation) is one
// list of cells from its FigNCells (AblationSparseCells) function, which
// fixes the setup, the sizes, the sweep and the body each cell times. The
// figure's report times the list with Time; its Go benchmark in the
// repository's bench_test.go and the shape tests read the same list.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
)

// Options sizes the experiments. The zero value approaches the paper's
// cardinalities; Quick shrinks the data sets, and a timed figure's
// rounds, for a fast pass. Par is the morsel
// scheduler the JiT engine runs on: serial (the zero value) reproduces
// the paper's single-core configuration, a pool of more than one worker
// runs scans morsel-parallel.
type Options struct {
	Quick bool
	Par   par.Options
}

// jitEngine returns the JiT engine configured by opt.Par; every figure
// driver that measures the JiT processor goes through it.
func jitEngine(opt Options) exec.Engine { return jit.NewParallel(opt.Par) }

// workersNote renders opt.Par for report footnotes, or "" when serial.
func workersNote(opt Options) string {
	if !opt.Par.Parallel() {
		return ""
	}
	return fmt.Sprintf("jit engine ran morsel-parallel with %d workers", opt.Par.WorkerCount())
}

// Report is a regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// experimentList is the one list of experiments, in paper order: All runs
// it, ByID scans it and IDs sorts its ids.
var experimentList = []struct {
	id  string
	run func(Options) *Report
}{
	{"fig3", timed(Fig3Cells)},
	{"fig6", Fig6},
	{"fig8", Fig8},
	{"table3", Table3},
	{"table4", Table4},
	{"fig9", timed(Fig9Cells)},
	{"fig10", timed(Fig10Cells)},
	{"fig11", timed(Fig11Cells)},
	{"fig12", timed(Fig12Cells)},
	{"table5", Table5},
	{"ablation-costfn", AblationCostFunction},
	{"ablation-cuts", AblationCuts},
	{"ablation-sparse", timed(AblationSparseCells)},
}

// All runs every experiment in paper order.
func All(opt Options) []*Report {
	reps := make([]*Report, len(experimentList))
	for i, d := range experimentList {
		reps[i] = d.run(opt)
	}
	return reps
}

// ByID returns the named experiment's driver, or nil.
func ByID(id string) func(Options) *Report {
	for _, d := range experimentList {
		if d.id == id {
			return d.run
		}
	}
	return nil
}

// IDs lists the available experiments, sorted.
func IDs() []string {
	ids := make([]string, len(experimentList))
	for i, d := range experimentList {
		ids[i] = d.id
	}
	sort.Strings(ids)
	return ids
}

// timed is a timed figure's driver: it times the figure's cells, one
// round in a quick pass and five otherwise, and renders their times.
func timed(figure func(Options) ([]Cell, func(map[string]time.Duration) *Report)) func(Options) *Report {
	return func(opt Options) *Report {
		cells, render := figure(opt)
		rounds := 5
		if opt.Quick {
			rounds = 1
		}
		return render(Time(cells, rounds))
	}
}

// grid lays timed cells out as the report's table: one row per run of
// consecutive cells with the same row labels, holding the labels and then
// each cell's time. labels heads the label columns; the first row's cells
// name the rest. It returns r.
func (r *Report) grid(labels []string, cells []Cell, times map[string]time.Duration) *Report {
	r.Header = slices.Clone(labels)
	for i, c := range cells {
		if slices.Equal(c.Row, cells[0].Row) {
			r.Header = append(r.Header, c.Col)
		}
		if i == 0 || !slices.Equal(c.Row, cells[i-1].Row) {
			r.Rows = append(r.Rows, slices.Clone(c.Row))
		}
		last := len(r.Rows) - 1
		r.Rows[last] = append(r.Rows[last], fmtDur(times[c.Name()]))
	}
	return r
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-2:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
