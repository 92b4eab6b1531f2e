package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench/cnet"
	"repro/internal/costmodel"
	"repro/internal/exec/jit"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Fig12Setup prepares the CNET comparison: the sparse catalog under row,
// column and BPi-chosen hybrid layouts, all with the primary-key index,
// plus the Table V queries.
type Fig12Setup struct {
	Data     *cnet.Data
	Catalogs map[string]*plan.Catalog
	Queries  map[int]plan.Node
	Hybrid   storage.Layout
}

// NewFig12Setup builds the fixture.
func NewFig12Setup(cfg cnet.Config) *Fig12Setup {
	d := cnet.Generate(cfg)
	rowCat := d.Catalog("row", nil)
	cnet.RegisterIndexes(rowCat)
	est := costmodel.NewEstimator(rowCat, mem.TableIII())
	o := layout.NewOptimizer(est)
	best, _ := o.Optimize("products", d.Workload(3))

	cats := map[string]*plan.Catalog{
		"row":    rowCat,
		"column": d.Catalog("column", nil),
		"hybrid": d.Catalog("", &best),
	}
	cnet.RegisterIndexes(cats["column"])
	cnet.RegisterIndexes(cats["hybrid"])
	return &Fig12Setup{Data: d, Catalogs: cats, Queries: d.Queries(3), Hybrid: best}
}

// Fig12 regenerates Figure 12: the CNET product-catalog queries weighted
// by their Table V frequencies, on row, column and hybrid layouts. The
// paper's headline: hybrid beats N-ary by more than an order of magnitude
// and full decomposition by ~4x on the weighted sum.
func Fig12(opt Options) *Report {
	cfg := cnet.Config{Products: 100_000, Attrs: 300, Categories: 50, MeanSparse: 6, Seed: 1}
	repeats := 3
	if opt.Quick {
		cfg = cnet.Config{Products: 10_000, Attrs: 100, Categories: 20, MeanSparse: 6, Seed: 1}
		repeats = 1
	}
	setup := NewFig12Setup(cfg)
	layouts := []string{"row", "column", "hybrid"}

	rep := &Report{
		ID:     "fig12",
		Title:  fmt.Sprintf("CNET catalog, weighted query times (%d products x %d attrs)", cfg.Products, cfg.Attrs),
		Header: append([]string{"query (freq)"}, layouts...),
		Notes: []string{
			"weighted time = median single-execution time x Table V frequency;",
			"paper: analytics best on DSM; Q3 slightly better on hybrid (id,name collocated); Q4 best on",
			"row with slight hybrid degradation; weighted sum: hybrid >10x over row, ~4x over column",
			fmt.Sprintf("BPi hybrid layout: %v", setup.Hybrid),
		},
	}
	totals := map[string]time.Duration{}
	for qi := 1; qi <= 4; qi++ {
		freq := cnet.Frequencies[qi]
		row := []string{fmt.Sprintf("Q%d (%gx)", qi, freq)}
		for _, l := range layouts {
			// The web application prepares its statements once and executes
			// them many times (Q4: 10000x), so the compiled form is reused —
			// exactly HyPer's compile-once-execute-parameterized model. Q4 is
			// executed over distinct product ids: sequential identical
			// lookups would measure a hot cache line instead of tuple
			// reconstruction.
			var d time.Duration
			if qi == 4 {
				variants := 1000
				if opt.Quick {
					variants = 200
				}
				rng := rand.New(rand.NewSource(9))
				prepared := make([]*jit.Prepared, variants)
				for i := range prepared {
					prepared[i] = jit.PrepareOpt(setup.Data.Q4For(int64(rng.Intn(setup.Data.Products.Rows()))), setup.Catalogs[l], opt.Par)
				}
				d = medianTime(repeats, func() {
					for _, pq := range prepared {
						pq.Exec()
					}
				}) / time.Duration(variants)
			} else {
				pq := jit.PrepareOpt(setup.Queries[qi], setup.Catalogs[l], opt.Par)
				d = medianTime(repeats, func() { pq.Exec() })
			}
			weighted := time.Duration(float64(d) * freq)
			totals[l] += weighted
			row = append(row, fmtDur(weighted))
		}
		rep.Rows = append(rep.Rows, row)
	}
	sum := []string{"Sum"}
	for _, l := range layouts {
		sum = append(sum, fmtDur(totals[l]))
	}
	rep.Rows = append(rep.Rows, sum)
	return rep
}

// Table5 prints the CNET workload definition (paper Table V).
func Table5(Options) *Report {
	return &Report{
		ID:     "table5",
		Title:  "The queries on the CNET product catalog",
		Header: []string{"query", "frequency", "description"},
		Rows: [][]string{
			{"select category, count(*) from products group by category", "1", "overview of all categories with product counts"},
			{"select (price_from/10)*10 as price, count(*) from products where category = $1 group by price order by price", "1", "drill down to a category and show price ranges"},
			{"select id, name from products where category=$1 and (price_from/10)*10 = $2", "100", "listing of all products in a category for the selected price range"},
			{"select * from products where id=$1", "10000", "show available details of a selected product"},
		},
	}
}
