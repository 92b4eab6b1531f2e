package experiments

import (
	"fmt"

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

// Fig9ProcessorsOpt lists Figure 9's processors, with the workers knob
// applied to the JiT engine — the single source of the figure's
// processor list.
func Fig9ProcessorsOpt(opt Options) []exec.Engine {
	return []exec.Engine{jitEngine(opt), hyrise.New()}
}

// Fig9 regenerates Figure 9: SAP-SD queries Q1-Q12 under {HyPer-style
// JiT, HYRISE-style bulk-with-calls} × {row, column, hybrid}.
func Fig9(opt Options) *Report {
	customers := 20000
	repeats := 3
	if opt.Quick {
		customers = 2000
		repeats = 1
	}
	setup := NewFig9Setup(customers)
	layouts := []string{"row", "column", "hybrid"}
	procs := Fig9ProcessorsOpt(opt)
	procName := map[string]string{"jit": "HyPer", "hyrise": "HYRISE"}

	rep := &Report{
		ID:     "fig9",
		Title:  fmt.Sprintf("SAP-SD Q1..Q12 (%d customers): JiT vs bulk-with-function-calls", customers),
		Header: []string{"query"},
		Notes: []string{
			"paper: JiT outperforms the HYRISE-style processor by up to >1 order of magnitude on scan-heavy",
			"queries; relative layout ranking is similar across processors; the insert Q6 is cheap under JiT",
		},
	}
	if n := workersNote(opt); n != "" {
		rep.Notes = append(rep.Notes, n)
	}
	for _, e := range procs {
		for _, l := range layouts {
			rep.Header = append(rep.Header, procName[e.Name()]+" "+l)
		}
	}
	insertSeq := 0
	for qi := 0; qi < 12; qi++ {
		row := []string{fmt.Sprintf("Q%d", qi+1)}
		for _, e := range procs {
			for _, l := range layouts {
				cat := setup.Catalogs[l]
				var p plan.Node
				if qi == 5 { // Q6: fresh insert per execution
					// One untimed insert first. Relation.AppendRows appends
					// to full partition slices, so the first insert on a
					// catalog copies every partition, and whichever
					// processor ran first would report that copy as Q6.
					e.Run(setup.Data.InsertPlan(insertSeq), cat)
					p = setup.Data.InsertPlan(insertSeq + 1)
					insertSeq += 2
				} else {
					p = setup.Queries.Plans[qi]
				}
				d := medianTime(repeats, func() { e.Run(p, cat) })
				row = append(row, fmtDur(d))
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
