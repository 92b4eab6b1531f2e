package advisor

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// advisorFixture builds a wide NSM table and a skewed mix that reads only
// a narrow attribute slice, so the BPi optimum differs from the stored
// layout and drift is visible.
func advisorFixture(t *testing.T) (*plan.Catalog, *workload.Workload) {
	t.Helper()
	const width, rows = 8, 2000
	attrs := make([]storage.Attribute, width)
	for i := range attrs {
		attrs[i] = storage.Attribute{Name: string(rune('a' + i)), Type: storage.Int64}
	}
	b := storage.NewBuilder(storage.NewSchema("t", attrs...))
	for a := 0; a < width; a++ {
		col := make([]int64, rows)
		for i := range col {
			col[i] = int64(i % 500)
		}
		b.SetInts(a, col)
	}
	cat := plan.NewCatalog().Add(b.Build(storage.NSM(width)))
	q := plan.Scan{
		Table:  "t",
		Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(50)},
		Cols:   []int{0, 1},
	}
	w := (&workload.Workload{Name: "skewed"}).Add("narrow", q, 100)
	return cat, w
}

func TestAdviseReportsDrift(t *testing.T) {
	cat, w := advisorFixture(t)
	g := mem.TableIII()
	advice := Advise(cat, g, w)
	if len(advice) != 1 {
		t.Fatalf("advice for %d tables, want 1", len(advice))
	}
	a := advice[0]
	if a.Table != "t" || a.Rows != 2000 {
		t.Errorf("advice head = %+v", a)
	}
	if a.Drift < 1 {
		t.Errorf("drift = %v, must be >= 1", a.Drift)
	}
	if a.Drift <= 1 {
		t.Errorf("skewed mix over NSM should show drift > 1, got %v", a.Drift)
	}
	if a.Recommended == a.Layout {
		t.Errorf("recommended layout equals stored layout (%s) despite drift %v", a.Layout, a.Drift)
	}
	if a.OptimalCost <= 0 || a.CurrentCost < a.OptimalCost {
		t.Errorf("costs inconsistent: current %v, optimal %v", a.CurrentCost, a.OptimalCost)
	}
}

// TestAdviseMatchesOfflineOptimizer pins the determinism contract: the
// advisor's recommendation and cost for a mix must be exactly what an
// offline layout.Optimizer run over the same declared workload produces.
func TestAdviseMatchesOfflineOptimizer(t *testing.T) {
	cat, w := advisorFixture(t)
	g := mem.TableIII()
	advice := Advise(cat, g, w)

	est := costmodel.NewEstimator(cat, g)
	o := layout.NewOptimizer(est)
	current, optimal, best := o.Drift("t", w)

	a := advice[0]
	if a.Recommended != best.String() {
		t.Errorf("advisor recommends %s, offline optimizer picks %s", a.Recommended, best.String())
	}
	if !approxEqual(a.OptimalCost, optimal) || !approxEqual(a.CurrentCost, current) {
		t.Errorf("costs diverge: advisor (%v, %v), offline (%v, %v)",
			a.CurrentCost, a.OptimalCost, current, optimal)
	}
	// Re-running the analysis must be bit-stable.
	again := Advise(cat, g, w)
	if again[0] != a {
		t.Errorf("advice not deterministic: %+v vs %+v", a, again[0])
	}
}

func TestAdviseNoDriftAfterRelayout(t *testing.T) {
	cat, w := advisorFixture(t)
	g := mem.TableIII()
	advice := Advise(cat, g, w)

	// Materialize the recommendation; drift must collapse to 1 and the
	// recommendation must become "keep what you have".
	est := costmodel.NewEstimator(cat, g)
	best, _ := layout.NewOptimizer(est).Optimize("t", w.Touching("t"))
	cat.Add(cat.Table("t").WithLayout(best, par.Serial()))

	after := Advise(cat, g, w)
	if after[0].Drift != 1 {
		t.Errorf("drift after relayout = %v, want exactly 1", after[0].Drift)
	}
	if after[0].Recommended != after[0].Layout {
		t.Errorf("after relayout, recommended (%s) != stored (%s)", after[0].Recommended, after[0].Layout)
	}
	if after[0].CurrentCost >= advice[0].CurrentCost {
		t.Errorf("relayout did not reduce cost: %v -> %v", advice[0].CurrentCost, after[0].CurrentCost)
	}
}

func TestAdviseSkipsUnknownTables(t *testing.T) {
	cat, w := advisorFixture(t)
	w.Add("ghost", plan.Scan{Table: "gone", Cols: []int{0}}, 5)
	advice := Advise(cat, mem.TableIII(), w)
	if len(advice) != 1 || advice[0].Table != "t" {
		t.Errorf("advice = %+v, want only table t", advice)
	}
}

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
