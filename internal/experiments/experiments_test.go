package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exec/result"
	"repro/internal/mem"
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
	cells, rounds := fig3Sweep(NewFig3Setup(300_000), Options{}), 7
	if raceEnabled {
		rounds = 3
	}
	for _, s := range Fig3Selectivities {
		col := fmt.Sprintf("s=%g", s)
		at := slices.DeleteFunc(slices.Clone(cells), func(c Cell) bool { return c.Col != col })
		var errs []string
		for attempt := 0; attempt < 3; attempt++ {
			if errs = fig3ShapeErrors(Time(at, rounds), "/"+col); len(errs) == 0 {
				break
			}
		}
		for _, err := range errs {
			t.Errorf("s=%g: %s", s, err)
		}
	}
}

// fig3ShapeErrors lists how the medians of one selectivity's cells, whose
// names end in sel, depart from Figure 3's shape.
func fig3ShapeErrors(times map[string]time.Duration, sel string) []string {
	var errs []string
	jit := times["jit/hybrid"+sel]
	for cell, d := range times {
		if !raceEnabled && float64(jit) > 1.2*float64(d) {
			errs = append(errs, fmt.Sprintf("jit/hybrid (%v) should be within 1.2x of the fastest cell, %s takes %v", jit, cell, d))
		}
		if strings.HasPrefix(cell, "volcano/") && jit*5 > d {
			errs = append(errs, fmt.Sprintf("jit/hybrid (%v) should be at least 5x faster than %s (%v)", jit, cell, d))
		}
	}
	if bulk, volcano := times["bulk/hybrid"+sel], times["volcano/hybrid"+sel]; bulk > volcano {
		errs = append(errs, fmt.Sprintf("bulk (%v) should not be slower than volcano (%v) on PDSM", bulk, volcano))
	}
	return errs
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

// TestTimedFigureCells: a timed figure's cells have non-empty labels, and
// its quick report shows exactly one value per cell, in the cell's row and
// column (so no two cells share a name).
func TestTimedFigureCells(t *testing.T) {
	for _, figure := range []func(Options) ([]Cell, func(map[string]time.Duration) *Report){
		Fig3Cells, Fig9Cells, Fig10Cells, Fig11Cells, Fig12Cells, AblationSparseCells,
	} {
		cells, render := figure(Options{Quick: true})
		rep := render(nil)
		shown := map[string]int{} // values the report shows by the name of their row and column
		labels := len(cells[0].Row)
		for _, row := range rep.Rows {
			if len(row) != len(rep.Header) {
				t.Fatalf("%s: row %v does not fit header %v", rep.ID, row, rep.Header)
			}
			for col := labels; col < len(row); col++ {
				shown[strings.Join(row[:labels], "/")+"/"+rep.Header[col]]++
			}
		}
		for _, c := range cells {
			if c.Col == "" || len(c.Row) == 0 || slices.Contains(c.Row, "") || shown[c.Name()] != 1 {
				t.Errorf("%s: cell %q has an empty label or %d values in the report", rep.ID, c.Name(), shown[c.Name()])
			}
		}
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
	const bound = 100 * time.Microsecond
	for _, figure := range []func(Options) ([]Cell, func(map[string]time.Duration) *Report){Fig9Cells, Fig10Cells} {
		var errs []string
		for attempt := 0; attempt < 3; attempt++ {
			cells, _ := figure(Options{Quick: true})
			q6 := slices.DeleteFunc(cells, func(c Cell) bool { return !c.Writes })
			if len(q6) != 6 || slices.ContainsFunc(q6, func(c Cell) bool { return c.Row[0] != "Q6" }) {
				t.Fatalf("the cells that write are %d, want the six Q6 cells", len(q6))
			}
			errs = nil
			for name, d := range Time(q6, 1) {
				if d >= bound {
					errs = append(errs, fmt.Sprintf("cell %s: %v, want under %v", name, d, bound))
				}
			}
			if len(errs) == 0 {
				break
			}
		}
		for _, err := range errs {
			t.Error(err)
		}
	}
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
