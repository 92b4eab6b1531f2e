package experiments

import (
	"fmt"

	"repro/internal/bench/sapsd"
	"repro/internal/exec/par"
	"repro/internal/plan"
)

// Fig10 regenerates Figure 10: the SAP-SD queries touched by indexing —
// the modifying Q6 (index maintenance cost) and the identity selects Q7
// and Q8 — with and without indexes, across row, column and hybrid
// layouts, executed by the JiT engine.
func Fig10(opt Options) *Report {
	customers := 20000
	repeats := 3
	if opt.Quick {
		customers = 2000
		repeats = 1
	}
	setup := NewFig9Setup(customers)
	// A second set of catalogs with the Figure 10 indexes registered
	// (hash on primary keys, RB-tree on VBAP.VBELN).
	indexed := map[string]*plan.Catalog{
		"row":    setup.Data.Catalog("row", nil),
		"column": setup.Data.Catalog("column", nil),
		"hybrid": nil,
	}
	// Rebuild the hybrid with the same optimizer-chosen layouts by copying
	// the unindexed hybrid's relations into a fresh catalog.
	hybridCat := plan.NewCatalog()
	for _, rel := range setup.Data.Tables() {
		hybridCat.Add(setup.Catalogs["hybrid"].Table(rel.Schema.Name).WithLayout(
			setup.Catalogs["hybrid"].Table(rel.Schema.Name).Layout, par.Serial()))
	}
	indexed["hybrid"] = hybridCat
	for _, cat := range indexed {
		sapsd.RegisterIndexes(cat)
	}

	engine := jitEngine(opt)
	layouts := []string{"row", "column", "hybrid"}
	rep := &Report{
		ID:     "fig10",
		Title:  fmt.Sprintf("SAP-SD with and without indexes (%d customers, JiT processor)", customers),
		Header: []string{"query", "variant"},
		Notes: []string{
			"paper: Q7/Q8 gain >1000x (column) and >10000x (row) from indexes; indexed row beats indexed",
			"column ~10x (tuple reconstruction); index maintenance cost on the insert Q6 is negligible",
		},
	}
	for _, l := range layouts {
		rep.Header = append(rep.Header, l)
	}

	insertSeq := 100000
	for _, spec := range []struct {
		label   string
		queryIx int
	}{{"Q6", 5}, {"Q7", 6}, {"Q8", 7}} {
		for _, variant := range []string{"unindexed", "indexed"} {
			cats := setup.Catalogs
			if variant == "indexed" {
				cats = indexed
			}
			row := []string{spec.label, variant}
			for _, l := range layouts {
				var p plan.Node
				if spec.queryIx == 5 {
					// Untimed first insert: it pays the partition copy (see Fig9).
					engine.Run(setup.Data.InsertPlan(insertSeq), cats[l])
					p = setup.Data.InsertPlan(insertSeq + 1)
					insertSeq += 2
				} else {
					p = setup.Queries.Plans[spec.queryIx]
				}
				d := medianTime(repeats, func() { engine.Run(p, cats[l]) })
				row = append(row, fmtDur(d))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}
