package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/chbench"
	"repro/internal/costmodel"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Fig11Setup prepares the CH-benchmark comparison over generated data
// (with a burst of transactions applied first, for the mixed-workload
// character): the analytical queries, and row/column/hybrid catalogs with
// the hybrid chosen by BPi.
type Fig11Setup struct {
	Catalogs map[string]*plan.Catalog
	Queries  map[int]plan.Node
}

// NewFig11Setup builds the fixture.
func NewFig11Setup(cfg chbench.Config, txns int) *Fig11Setup {
	d := chbench.Generate(cfg)
	rowCat := d.Catalog("row", nil)
	if txns > 0 {
		tx := chbench.NewTx(d, rowCat, 3)
		if err := tx.Mix(txns); err != nil {
			panic(err)
		}
		// The transactional writes went to the row catalog's relations;
		// re-derive the master so all layout siblings see the same state.
		d.Orders = rowCat.Table("orders")
		d.Orderline = rowCat.Table("orderline")
		d.Customer = rowCat.Table("customer")
		d.District = rowCat.Table("district")
		d.Stock = rowCat.Table("stock")
	}
	est := costmodel.NewEstimator(rowCat, mem.TableIII())
	w := d.Workload()
	o := layout.NewOptimizer(est)
	overrides := map[string]storage.Layout{}
	for _, tbl := range []string{"orderline", "orders", "customer", "item", "stock", "supplier"} {
		best, _ := o.Optimize(tbl, w)
		overrides[tbl] = best
	}
	return &Fig11Setup{
		Catalogs: map[string]*plan.Catalog{
			"row":    d.Catalog("row", nil),
			"column": d.Catalog("column", nil),
			"hybrid": d.Catalog("row", overrides),
		},
		Queries: d.Queries(),
	}
}

// Fig11Cells builds Figure 11: CH-benchmark analytical queries 1, 2, 3,
// 4, 5, 6, 8, 10 on row, column and hybrid layouts under the JiT
// processor, at W=4 after 2,000 transactions (W=2 after 200 quick). The
// paper's (negative-ish) finding: because JiT row scans are already tight
// loops, full decomposition only buys ~30% on the analytical queries, and
// the hybrid tracks the column store closely.
func Fig11Cells(opt Options) ([]Cell, func(map[string]time.Duration) *Report) {
	cfg := chbench.Config{Warehouses: 4, DistrictsPerW: 10, CustomersPerD: 300, OrdersPerD: 300, Items: 2000, Suppliers: 200, Seed: 1}
	txns := 2000
	if opt.Quick {
		cfg = chbench.Config{Warehouses: 2, DistrictsPerW: 4, CustomersPerD: 50, OrdersPerD: 60, Items: 500, Suppliers: 50, Seed: 1}
		txns = 200
	}
	setup := NewFig11Setup(cfg, txns)
	engine := jitEngine(opt)
	var cells []Cell
	for _, qi := range chbench.QueryOrder {
		for _, l := range []string{"row", "column", "hybrid"} {
			q, cat := setup.Queries[qi], setup.Catalogs[l]
			cells = append(cells, Cell{Row: []string{fmt.Sprint(qi)}, Col: l, Execs: 1, Run: func() { engine.Run(q, cat) }})
		}
	}
	return cells, func(times map[string]time.Duration) *Report {
		rep := &Report{
			ID:    "fig11",
			Title: fmt.Sprintf("CH-benchmark analytical queries (W=%d, after %d transactions, JiT)", cfg.Warehouses, txns),
			Notes: []string{
				"paper: decomposition buys only ~30% over N-ary storage here — JiT-compiled row scans",
				"are already tight loops, so there is little left for the layout to win on this workload",
			},
		}
		return rep.grid([]string{"CH query"}, cells, times)
	}
}
