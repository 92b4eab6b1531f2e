package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/plan"
)

// parallelWorkerCounts is the sweep of the differential suite: fixed
// counts plus whatever this machine has.
func parallelWorkerCounts() []int {
	counts := []int{2, 4}
	if n := runtime.NumCPU(); n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// parallelJIT is the jit engine on the package's shared pool of the
// given size. Small morsels force many morsels even on test-sized
// tables, so the morsel-order merge is exercised rather than
// degenerating to one slot.
func parallelJIT(workers int) exec.Engine {
	return jit.NewParallel(par.Options{Pool: testPool(workers), MorselRows: 4096})
}

// assertParallelMatches fails unless the parallel jit engine returns the
// serial engine's rows in the serial order: the morsel-order merge makes
// them identical row for row, not only as a multiset.
func assertParallelMatches(t *testing.T, label string, p plan.Node, cat *plan.Catalog) {
	t.Helper()
	want := jit.New().Run(p, cat)
	for _, workers := range parallelWorkerCounts() {
		if got := parallelJIT(workers).Run(p, cat); !result.Equal(want, got) {
			t.Fatalf("%s: jit with %d workers diverges from serial (serial %d rows, parallel %d rows)",
				label, workers, want.Len(), got.Len())
		}
	}
}

// TestParallelMatchesSerialFig3 asserts the morsel-parallel engines
// reproduce the serial results for the Figure 3 example query on every
// layout across the selectivity sweep.
func TestParallelMatchesSerialFig3(t *testing.T) {
	setup := NewFig3Setup(60_000)
	for _, layoutName := range []string{"row", "column", "hybrid"} {
		cat := setup.Catalogs[layoutName]
		for _, s := range []float64{0.0001, 0.01, 0.5, 1.0} {
			assertParallelMatches(t, fmt.Sprintf("fig3 %s sel=%g", layoutName, s), setup.Query(s), cat)
		}
	}
}

// TestParallelMatchesSerialFig3Scan covers the row-emitting (non-
// aggregate) pipeline: the filtered scan underneath the Figure 3 query,
// whose parallel form must match the serial row set. The full-selectivity
// sweep (large emit volume) runs on one layout to keep the -race run
// affordable; the selective sweep runs on all three.
func TestParallelMatchesSerialFig3Scan(t *testing.T) {
	setup := NewFig3Setup(20_000)
	for _, layoutName := range []string{"row", "column", "hybrid"} {
		agg := setup.Query(0.01).(plan.Aggregate)
		assertParallelMatches(t, fmt.Sprintf("fig3-scan %s sel=0.01", layoutName), agg.Child, setup.Catalogs[layoutName])
	}
	full := setup.Query(1.0).(plan.Aggregate)
	assertParallelMatches(t, "fig3-scan column sel=1", full.Child, setup.Catalogs["column"])
}

// TestParallelMatchesSerialFig9 asserts the same over the SAP-SD query
// set (scans, joins, grouped aggregates, sort/limit) on every layout. The
// insert Q6 mutates and is excluded; parallel insert is meaningless.
func TestParallelMatchesSerialFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 setup is expensive")
	}
	setup := NewFig9Setup(1500)
	for _, layoutName := range []string{"row", "column", "hybrid"} {
		cat := setup.Catalogs[layoutName]
		for qi, p := range setup.Queries.Plans {
			if qi == 5 {
				continue
			}
			assertParallelMatches(t, fmt.Sprintf("fig9 %s Q%d", layoutName, qi+1), p, cat)
		}
	}
}
