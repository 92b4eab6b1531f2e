package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/exec"
	"repro/internal/exec/bulk"
	"repro/internal/exec/par"
	"repro/internal/exec/volcano"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Fig3Selectivities is the selectivity sweep of the example query.
var Fig3Selectivities = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}

// Fig3Setup holds the example-query fixture shared by the report driver
// and bench_test.go: the 16-attribute relation R under the three layouts
// of Section III-A, and the plan factory.
type Fig3Setup struct {
	Catalogs map[string]*plan.Catalog // row, column, hybrid
}

// NewFig3Setup generates R(A..P) with A uniform over [0, 1e6), so that the
// predicate A < s*1e6 has selectivity s.
func NewFig3Setup(rows int) *Fig3Setup {
	attrs := make([]storage.Attribute, 16)
	for i := range attrs {
		attrs[i] = storage.Attribute{Name: string(rune('A' + i)), Type: storage.Int64}
	}
	schema := storage.NewSchema("R", attrs...)
	b := storage.NewBuilder(schema)
	rng := rand.New(rand.NewSource(1))
	for a := 0; a < 16; a++ {
		col := make([]int64, rows)
		for i := range col {
			if a == 0 {
				col[i] = rng.Int63n(1_000_000)
			} else {
				col[i] = rng.Int63n(1000)
			}
		}
		b.SetInts(a, col)
	}
	master := b.Build(storage.NSM(16))
	rest := make([]int, 0, 11)
	for a := 5; a < 16; a++ {
		rest = append(rest, a)
	}
	layouts := map[string]storage.Layout{
		"row":    storage.NSM(16),
		"column": storage.DSM(16),
		"hybrid": storage.PDSM([]int{0}, []int{1, 2, 3, 4}, rest), // the paper's hand-optimized PDSM
	}
	s := &Fig3Setup{Catalogs: map[string]*plan.Catalog{}}
	for name, l := range layouts {
		s.Catalogs[name] = plan.NewCatalog().Add(master.WithLayout(l, par.Serial()))
	}
	return s
}

// Query builds `select sum(B),sum(C),sum(D),sum(E) from R where A < s*1e6`
// — the Figure 2a query with the parameter expressed as a selectivity.
func (s *Fig3Setup) Query(selectivity float64) plan.Node {
	threshold := int64(selectivity * 1_000_000)
	return plan.Aggregate{
		Child: plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(threshold)},
			Cols:   []int{1, 2, 3, 4},
		},
		Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_b"},
			{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_c"},
			{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sum_d"},
			{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "sum_e"},
		},
	}
}

// Fig3EnginesOpt lists Figure 3's engines, with the workers knob applied
// to the JiT engine — the single source of the figure's engine list.
func Fig3EnginesOpt(opt Options) []exec.Engine {
	return []exec.Engine{volcano.New(), bulk.New(), jitEngine(opt)}
}

// Fig3 regenerates Figure 3: evaluation time of the example query under
// every processing model × storage layout combination across the
// selectivity sweep. The paper's claims: Volcano is 1-2 orders of
// magnitude slower regardless of layout; bulk is competitive at low
// selectivity and degrades with materialization volume; JiT on the
// hand-optimized PDSM wins across the sweep.
func Fig3(opt Options) *Report {
	rows := 1_000_000
	repeats := 5
	if opt.Quick {
		rows = 100_000
		repeats = 1
	}
	setup := NewFig3Setup(rows)
	layoutOrder := []string{"row", "column", "hybrid"}

	rep := &Report{
		ID:     "fig3",
		Title:  fmt.Sprintf("Example query cost vs. selectivity (%d tuples)", rows),
		Header: append([]string{"processor/layout"}, selLabels()...),
		Notes: []string{
			"paper: Volcano slowest by 1-2 orders of magnitude (storage-model independent);",
			"bulk degrades with selectivity (materialization); JiT+PDSM best across the sweep",
		},
	}
	if n := workersNote(opt); n != "" {
		rep.Notes = append(rep.Notes, n)
	}
	for _, e := range Fig3EnginesOpt(opt) {
		for _, ln := range layoutOrder {
			cat := setup.Catalogs[ln]
			row := []string{e.Name() + "/" + ln}
			for _, s := range Fig3Selectivities {
				q := setup.Query(s)
				// The bulk engine's materialization churns the heap; collect
				// between cells so one engine's garbage is not charged to the
				// next measurement.
				runtime.GC()
				d := medianTime(repeats, func() { e.Run(q, cat) })
				row = append(row, fmtDur(d))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

func selLabels() []string {
	out := make([]string, len(Fig3Selectivities))
	for i, s := range Fig3Selectivities {
		out[i] = fmt.Sprintf("s=%g", s)
	}
	return out
}
