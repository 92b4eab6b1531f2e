package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/sapsd"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/exec/hyrise"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Fig9Setup prepares the SAP-SD comparison: the generated database under
// row, column and optimizer-chosen hybrid layouts, plus the query set.
type Fig9Setup struct {
	Data     *sapsd.Data
	Catalogs map[string]*plan.Catalog // row, column, hybrid
	Queries  sapsd.QuerySet
	inserts  int // Q6 rows inserted so far
}

// NewFig9Setup generates the data and runs BPi over the query-relevant
// tables to obtain the hybrid layout (the paper derives its hybrid the
// same way).
func NewFig9Setup(customers int) *Fig9Setup {
	d := sapsd.Generate(sapsd.Config{Customers: customers, Seed: 1})
	rowCat := d.Catalog("row", nil)
	est := costmodel.NewEstimator(rowCat, mem.TableIII())
	w := d.Workload(7)
	o := layout.NewOptimizer(est)
	overrides := map[string]storage.Layout{}
	for _, tbl := range []string{"ADRC", "KNA1", "VBAK", "VBAP", "MARA"} {
		best, _ := o.Optimize(tbl, w)
		overrides[tbl] = best
	}
	return &Fig9Setup{
		Data: d,
		Catalogs: map[string]*plan.Catalog{
			"row":    rowCat,
			"column": d.Catalog("column", nil),
			"hybrid": d.Catalog("row", overrides),
		},
		Queries: d.Queries(7),
	}
}

// q6 is the Q6 body on cat: each run inserts one order line under an
// order number no run has used, bumping the key of a plan built once, so
// a cell times the insert alone. Time's untimed run takes the first
// insert's copy of every partition.
func (s *Fig9Setup) q6(e exec.Engine, cat *plan.Catalog) func() {
	ins := s.Data.InsertPlan(0).(plan.Insert)
	key := &ins.Rows[0][s.Data.VBAP.Schema.Col("VBELN")]
	first := storage.DecodeInt(*key)
	return func() {
		*key = storage.EncodeInt(first + int64(s.inserts))
		s.inserts++
		e.Run(ins, cat)
	}
}

// Fig9Cells builds Figure 9: SAP-SD queries Q1-Q12 under {HyPer-style
// JiT, HYRISE-style bulk-with-calls} × {row, column, hybrid}, over 20,000
// customers (2,000 quick).
func Fig9Cells(opt Options) ([]Cell, func(map[string]time.Duration) *Report) {
	customers := 20000
	if opt.Quick {
		customers = 2000
	}
	setup := NewFig9Setup(customers)
	procName := map[string]string{"jit": "HyPer", "hyrise": "HYRISE"}
	procs := []exec.Engine{jitEngine(opt), hyrise.New()}
	var cells []Cell
	for qi, p := range setup.Queries.Plans {
		for _, e := range procs {
			for _, l := range []string{"row", "column", "hybrid"} {
				cat := setup.Catalogs[l]
				run := func() { e.Run(p, cat) }
				if qi == 5 {
					run = setup.q6(e, cat)
				}
				cells = append(cells, Cell{Row: []string{fmt.Sprintf("Q%d", qi+1)}, Col: procName[e.Name()] + " " + l, Execs: 1, Writes: qi == 5, Run: run})
			}
		}
	}
	return cells, func(times map[string]time.Duration) *Report {
		rep := &Report{
			ID:    "fig9",
			Title: fmt.Sprintf("SAP-SD Q1..Q12 (%d customers): JiT vs bulk-with-function-calls", customers),
			Notes: []string{
				"paper: JiT outperforms the HYRISE-style processor by up to >1 order of magnitude on scan-heavy",
				"queries; relative layout ranking is similar across processors; the insert Q6 is cheap under JiT",
			},
		}
		if n := workersNote(opt); n != "" {
			rep.Notes = append(rep.Notes, n)
		}
		return rep.grid([]string{"query"}, cells, times)
	}
}
