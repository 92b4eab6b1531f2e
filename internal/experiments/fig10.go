package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/sapsd"
	"repro/internal/exec/par"
	"repro/internal/plan"
)

// Fig10Cells builds Figure 10: the SAP-SD queries touched by indexing —
// the modifying Q6 (index maintenance cost) and the identity selects Q7
// and Q8 — with and without indexes, across row, column and hybrid
// layouts, executed by the JiT engine over 20,000 customers (2,000 quick).
func Fig10Cells(opt Options) ([]Cell, func(map[string]time.Duration) *Report) {
	customers := 20000
	if opt.Quick {
		customers = 2000
	}
	setup := NewFig9Setup(customers)
	// A second set of catalogs with the Figure 10 indexes registered
	// (hash on primary keys, RB-tree on VBAP.VBELN).
	indexed := map[string]*plan.Catalog{
		"row":    setup.Data.Catalog("row", nil),
		"column": setup.Data.Catalog("column", nil),
		"hybrid": plan.NewCatalog(),
	}
	// Rebuild the hybrid with the same optimizer-chosen layouts by copying
	// the unindexed hybrid's relations into a fresh catalog.
	for _, rel := range setup.Data.Tables() {
		hybrid := setup.Catalogs["hybrid"].Table(rel.Schema.Name)
		indexed["hybrid"].Add(hybrid.WithLayout(hybrid.Layout, par.Serial()))
	}
	for _, cat := range indexed {
		sapsd.RegisterIndexes(cat)
	}

	engine := jitEngine(opt)
	var cells []Cell
	for _, qi := range []int{5, 6, 7} { // Q6, Q7, Q8
		for _, variant := range []string{"unindexed", "indexed"} {
			cats := setup.Catalogs
			if variant == "indexed" {
				cats = indexed
			}
			for _, l := range []string{"row", "column", "hybrid"} {
				p, cat := setup.Queries.Plans[qi], cats[l]
				run := func() { engine.Run(p, cat) }
				if qi == 5 {
					run = setup.q6(engine, cat)
				}
				cells = append(cells, Cell{Row: []string{fmt.Sprintf("Q%d", qi+1), variant}, Col: l, Execs: 1, Writes: qi == 5, Run: run})
			}
		}
	}
	return cells, func(times map[string]time.Duration) *Report {
		rep := &Report{
			ID:    "fig10",
			Title: fmt.Sprintf("SAP-SD with and without indexes (%d customers, JiT processor)", customers),
			Notes: []string{
				"paper: Q7/Q8 gain >1000x (column) and >10000x (row) from indexes; indexed row beats indexed",
				"column ~10x (tuple reconstruction); index maintenance cost on the insert Q6 is negligible",
			},
		}
		return rep.grid([]string{"query", "variant"}, cells, times)
	}
}
