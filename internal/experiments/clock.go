package experiments

import (
	"runtime"
	"slices"
	"strings"
	"time"
)

// A Cell is one measured point of a timed figure: the value at row Row,
// column Col of its report. Run does the measured work once, and that
// work is Execs executions of what the figure plots, so a cell is
// reported per execution. Writes marks a Run that adds rows other cells
// may read.
type Cell struct {
	Row    []string
	Col    string
	Execs  int
	Writes bool
	Run    func()
}

// Order returns cells in the order a clock runs them: writers after the
// cells that only read, so no reader is timed on the rows a writer adds.
func Order(cells []Cell) []Cell {
	readers := slices.DeleteFunc(slices.Clone(cells), func(c Cell) bool { return c.Writes })
	writers := slices.DeleteFunc(slices.Clone(cells), func(c Cell) bool { return !c.Writes })
	return append(readers, writers...)
}

// Name names the cell in Time's result, benchmarks and tests: its row
// labels and its column joined by "/".
func (c Cell) Name() string { return strings.Join(c.Row, "/") + "/" + c.Col }

// Time is the one clock of the timed figures. Each of rounds rounds runs
// every cell once, in Order, so a noisy moment lands on all cells alike.
// A timed run follows a collection and then an untimed run: the cell
// starts from its own data in cache, the collector's aftermath and any
// first-run cost (a Q6 cell's first insert copies every partition) land
// on the untimed run, and no other cell's garbage is charged to it. Time
// returns each cell's median time per execution, by name.
func Time(cells []Cell, rounds int) map[string]time.Duration {
	samples := make([][]time.Duration, len(cells))
	cells = Order(cells)
	for range rounds {
		for i, c := range cells {
			runtime.GC()
			c.Run()
			start := time.Now()
			c.Run()
			samples[i] = append(samples[i], time.Since(start))
		}
	}
	times := make(map[string]time.Duration, len(cells))
	for i, c := range cells {
		slices.Sort(samples[i])
		times[c.Name()] = samples[i][len(samples[i])/2] / time.Duration(c.Execs)
	}
	return times
}
