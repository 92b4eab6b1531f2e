package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exec/result"
	"repro/internal/mem"
	"repro/internal/plan"
)

// TestFig3SetupCorrectness: the example query returns the same sums on all
// three layouts and all engines (fixture sanity for the headline figure).
func TestFig3SetupCorrectness(t *testing.T) {
	setup := NewFig3Setup(20000)
	q := setup.Query(0.01)
	var ref *result.Set
	for name, cat := range setup.Catalogs {
		for _, e := range Fig3EnginesOpt(Options{}) {
			got := e.Run(q, cat)
			if got.Len() != 1 {
				t.Fatalf("%s/%s: %d rows", e.Name(), name, got.Len())
			}
			if ref == nil {
				ref = got
			} else if !result.EqualUnordered(ref, got) {
				t.Fatalf("%s/%s: result mismatch", e.Name(), name)
			}
		}
	}
}

// TestFig3Shape asserts the headline result's ordinal shape on a mid-size
// instance, at every selectivity of the sweep: JiT on the hand-optimized
// PDSM is the fastest engine × layout cell (within 1.2x of whichever is
// fastest), at least 5x faster than every Volcano cell (the paper reports
// 2 orders of magnitude on 25M tuples; the gap grows with data size, so the
// small-instance bound is loose), and bulk is not slower than Volcano. The
// race detector's instrumentation distorts the close ratios among the fast
// cells, so under it the 1.2x bound is not checked and the coarse ones take
// 3 rounds instead of 7.
// A burst of noise from a machine's other tenants can sink one measurement
// of one cell; a shape violation survives measuring again, so each
// selectivity gets three attempts.
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	setup, rounds := NewFig3Setup(300_000), 7
	if raceEnabled {
		rounds = 3
	}
	for _, s := range Fig3Selectivities {
		var errs []string
		for attempt := 0; attempt < 3; attempt++ {
			if errs = fig3ShapeErrors(fig3Cells(setup, setup.Query(s), rounds)); len(errs) == 0 {
				break
			}
		}
		for _, err := range errs {
			t.Errorf("s=%g: %s", s, err)
		}
	}
}

// fig3ShapeErrors lists how the cell medians depart from Figure 3's shape.
func fig3ShapeErrors(times map[string]time.Duration) []string {
	var errs []string
	jit := times["jit/hybrid"]
	for cell, d := range times {
		if !raceEnabled && float64(jit) > 1.2*float64(d) {
			errs = append(errs, fmt.Sprintf("jit/hybrid (%v) should be within 1.2x of the fastest cell, %s takes %v", jit, cell, d))
		}
		if strings.HasPrefix(cell, "volcano/") && jit*5 > d {
			errs = append(errs, fmt.Sprintf("jit/hybrid (%v) should be at least 5x faster than %s (%v)", jit, cell, d))
		}
	}
	if times["bulk/hybrid"] > times["volcano/hybrid"] {
		errs = append(errs, fmt.Sprintf("bulk (%v) should not be slower than volcano (%v) on PDSM", times["bulk/hybrid"], times["volcano/hybrid"]))
	}
	return errs
}

// fig3Cells times q on every engine × layout cell of Figure 3 and returns
// each cell's median. Each of rounds rounds times every cell once, so a
// noisy moment lands on all cells alike. Each timed run follows a
// collection and then an untimed run: the cell starts from its own data in
// cache, the collector's aftermath lands on the untimed run, and no other
// cell's garbage is charged to it.
func fig3Cells(setup *Fig3Setup, q plan.Node, rounds int) map[string]time.Duration {
	samples := map[string][]time.Duration{}
	for range rounds {
		for _, e := range Fig3EnginesOpt(Options{}) {
			for layout, cat := range setup.Catalogs {
				runtime.GC()
				e.Run(q, cat)
				start := time.Now()
				e.Run(q, cat)
				cell := e.Name() + "/" + layout
				samples[cell] = append(samples[cell], time.Since(start))
			}
		}
	}
	medians := map[string]time.Duration{}
	for cell, ds := range samples {
		slices.Sort(ds)
		medians[cell] = ds[len(ds)/2]
	}
	return medians
}

// TestFig6Shape: the model-vs-simulator sweep reproduces the paper's
// qualitative curves.
func TestFig6Shape(t *testing.T) {
	pts := Fig6Sweep(1<<19, mem.TableIII())
	last := pts[len(pts)-1]
	if last.S != 1.0 {
		t.Fatal("sweep must end at s=1")
	}
	if last.PredRand != 0 {
		t.Errorf("at s=1 predicted random misses must be 0, got %v", last.PredRand)
	}
	if last.MeasRand > last.MeasSeq/10 {
		t.Errorf("at s=1 measured misses should be almost all sequential (%v rand vs %v seq)", last.MeasRand, last.MeasSeq)
	}
	// rr_acc underestimates total misses at low selectivity.
	low := pts[1] // s=0.01
	if low.RRAccPred > (low.PredSeq+low.PredRand)*0.75 {
		t.Errorf("rr_acc (%v) should underestimate s_trav_cr total (%v) at s=%v",
			low.RRAccPred, low.PredSeq+low.PredRand, low.S)
	}
	// Predicted and measured totals within 2x across the sweep.
	for _, p := range pts {
		pred := p.PredSeq + p.PredRand
		meas := p.MeasSeq + p.MeasRand
		if pred == 0 || meas == 0 {
			continue
		}
		if r := pred / meas; r < 0.5 || r > 2 {
			t.Errorf("s=%v: predicted/measured = %.2f, want within [0.5,2]", p.S, r)
		}
	}
}

// TestFig8Cliffs: the calibration curve must step up at every capacity
// boundary.
func TestFig8Cliffs(t *testing.T) {
	geo := mem.TableIII()
	inL1 := Fig8Chase(16<<10, 100_000, geo, 1)
	inL2 := Fig8Chase(128<<10, 100_000, geo, 1)
	inL3 := Fig8Chase(4<<20, 100_000, geo, 1)
	inMem := Fig8Chase(64<<20, 100_000, geo, 1)
	if !(inL1 < inL2 && inL2 < inL3 && inL3 < inMem) {
		t.Errorf("calibration curve not monotone across capacities: %v %v %v %v", inL1, inL2, inL3, inMem)
	}
	// The L2 cliff should be roughly the configured L2 latency.
	if d := inL2 - inL1; d < 1 || d > 6 {
		t.Errorf("L1->L2 cliff = %.2f cycles, want ~3", d)
	}
	if d := inL3 - inL2; d < 4 || d > 14 {
		t.Errorf("L2->L3 cliff = %.2f cycles, want ~8", d)
	}
}

// TestReportsRender: every experiment runs in quick mode and renders a
// non-empty table (full end-to-end coverage of the harness).
func TestReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	var ids []string
	for _, rep := range All(Options{Quick: true}) {
		ids = append(ids, rep.ID)
		if len(rep.Rows) == 0 {
			t.Errorf("%s: empty report", rep.ID)
		}
		s := rep.String()
		if !strings.Contains(s, rep.ID) {
			t.Errorf("%s: rendering broken", rep.ID)
		}
	}
	// -all and -list must name the same experiments.
	slices.Sort(ids)
	if !slices.Equal(ids, IDs()) {
		t.Errorf("All reports %v, IDs lists %v", ids, IDs())
	}
}

// TestQ6CellsTimeOneInsert: a Figure 9/10 Q6 cell times a single-row
// insert, a few microseconds. The first insert on a catalog also copies
// every partition (Relation.AppendRows appends to full slices), which takes
// milliseconds; if a cell's timed run paid that copy, the cell would
// report it as Q6 and the processor that ran first on a catalog would lose.
// A quick cell is one sample, so a preemption can push it over the bound;
// the copy recurs on every fresh setup, so each figure gets three attempts.
func TestQ6CellsTimeOneInsert(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the SAP-SD data several times")
	}
	for _, c := range []struct {
		fig   func(Options) *Report
		first int // index of the first timed cell in a row
	}{
		{Fig9, 1},
		{Fig10, 2},
	} {
		var errs []string
		for attempt := 0; attempt < 3; attempt++ {
			if errs = q6Errors(t, c.fig(Options{Quick: true}), c.first); len(errs) == 0 {
				break
			}
		}
		for _, err := range errs {
			t.Error(err)
		}
	}
}

// q6Errors lists the report's Q6 cells at or over 100µs.
func q6Errors(t *testing.T, rep *Report, first int) []string {
	const bound = 100 * time.Microsecond
	var errs []string
	for _, row := range rep.Rows {
		if row[0] != "Q6" {
			continue
		}
		for i := first; i < len(row); i++ {
			d, err := time.ParseDuration(row[i])
			if err != nil {
				t.Fatalf("%s %s: %v", rep.ID, rep.Header[i], err)
			}
			if d >= bound {
				errs = append(errs, fmt.Sprintf("%s %s %s: %v, want under %v", rep.ID, strings.Join(row[:first], " "), rep.Header[i], d, bound))
			}
		}
	}
	return errs
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown id must return nil")
	}
}
