package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/cnet"
	"repro/internal/bench/sapsd"
	"repro/internal/costmodel"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// AblationCostFunction compares the paper's prefetching-aware cost
// function (Equations 5–6) against the original flat-weighted sum on
// patterns where prefetch hiding matters: the flat function overcharges
// CPU-bound sequential scans (their LLC misses are fully hidden) while
// both agree on random access, so the aware function reproduces the
// scan/random cost asymmetry the simulator measures.
func AblationCostFunction(opt Options) *Report {
	geo := mem.TableIII()
	n := int64(1 << 21)
	if opt.Quick {
		n = 1 << 18
	}
	cases := []struct {
		name string
		p    pattern.Pattern
	}{
		{"sequential scan (s_trav)", pattern.STrav{N: n, W: 8, U: 8}},
		{"selective read s=0.05", pattern.STravCR{N: n, W: 16, U: 16, S: 0.05}},
		{"selective read s=0.5", pattern.STravCR{N: n, W: 16, U: 16, S: 0.5}},
		{"random traversal (r_trav)", pattern.RTrav{N: n / 4, W: 64, U: 8}},
	}
	rep := &Report{
		ID:     "ablation-costfn",
		Title:  "Prefetch-aware cost function (Eq. 5-6) vs. flat-weighted original",
		Header: []string{"pattern", "aware cost", "flat cost", "simulated cycles"},
		Notes: []string{
			"the aware function hides sequential LLC misses behind processing (max(0,...) in Eq. 5);",
			"the flat function overprices bandwidth-friendly scans relative to the simulator",
		},
	}
	for _, c := range cases {
		aware := costmodel.Cost(c.p, geo)
		flat := costmodel.CostNaive(c.p, geo)
		h := mem.NewHierarchy(geo)
		pattern.Simulate(c.p, h, 5)
		rep.Rows = append(rep.Rows, []string{c.name, fmtF(aware), fmtF(flat), fmtF(h.Cycles())})
	}
	return rep
}

// AblationCuts compares the paper's Extended Reasonable Cuts against the
// classic per-query cuts of Chu & Ieong on the ADRC table (Table IV),
// where Q1 accesses NAME1 unconditionally but NAME2 only conditionally and
// projects yet other attributes — co-accessed within one query under
// *different* access patterns, exactly the separation classic cuts cannot
// express (Section V-A's motivating argument).
func AblationCuts(opt Options) *Report {
	customers := 20000
	if opt.Quick {
		customers = 3000
	}
	d := sapsd.Generate(sapsd.Config{Customers: customers, Seed: 1})
	cat := d.Catalog("row", nil)
	est := costmodel.NewEstimator(cat, mem.TableIII())
	qs := d.Queries(7)
	w := (&workload.Workload{Name: "adrc"}).
		Add("Q1", qs.Plans[0], 1).
		Add("Q3", qs.Plans[2], 1)

	extended := layout.NewOptimizer(est)
	classic := layout.NewOptimizer(est)
	classic.ClassicCutsOnly = true

	extLayout, extCost := extended.Optimize("ADRC", w)
	clLayout, clCost := classic.Optimize("ADRC", w)
	width := d.ADRC.Schema.Width()
	nsmCost := w.Cost(est, map[string]storage.Layout{"ADRC": storage.NSM(width)})

	rep := &Report{
		ID:     "ablation-cuts",
		Title:  "Extended reasonable cuts vs. classic per-query cuts (ADRC, Table IV workload)",
		Header: []string{"candidate generation", "cuts", "partitions", "workload cost", "% of NSM"},
		Notes: []string{
			"extended cuts come from atomic access patterns (Section V-A); classic cuts from whole queries;",
			"classic cuts cannot split NAME1 from NAME2 (both touched by Q1), losing the conditional-read saving",
		},
	}
	rep.Rows = append(rep.Rows,
		[]string{"extended (paper)", fmt.Sprint(len(extended.CutsFor("ADRC", w))), fmt.Sprint(len(extLayout.Groups)), fmtF(extCost), fmt.Sprintf("%.1f%%", 100*extCost/nsmCost)},
		[]string{"classic (Chu & Ieong)", fmt.Sprint(len(classic.CutsFor("ADRC", w))), fmt.Sprint(len(clLayout.Groups)), fmtF(clCost), fmt.Sprintf("%.1f%%", 100*clCost/nsmCost)},
	)
	return rep
}

// AblationSparseCells builds the comparison of the paper's proposed dense
// key-value storage (conclusion, "beyond schema decomposition") against
// the dense layouts on the CNET catalog: footprint, a single-attribute
// aggregation, and the detail-page tuple reconstruction.
func AblationSparseCells(opt Options) ([]Cell, func(map[string]time.Duration) *Report) {
	cfg := cnet.Config{Products: 50000, Attrs: 200, Categories: 40, MeanSparse: 6, Seed: 2}
	if opt.Quick {
		cfg.Products = 8000
		cfg.Attrs = 80
	}
	rel := cnet.Generate(cfg).Products
	store := sparse.FromRelation(rel)
	attr := cfg.Attrs / 2 // a representative sparse attribute
	const sumRow, fetchRow = "sum over one sparse attribute", "100 full-tuple reconstructions"
	const dense, kv = "dense (NSM)", "sparse KV"
	cells := []Cell{
		{Row: []string{sumRow}, Col: dense, Execs: 1, Run: func() {
			a := rel.Access(attr)
			var sum int64
			for row := 0; row < rel.Rows(); row++ {
				if v := a.Data[row*a.Stride+a.Off]; v != storage.Null {
					sum += storage.DecodeInt(v)
				}
			}
			_ = sum
		}},
		{Row: []string{sumRow}, Col: kv, Execs: 1, Run: func() { store.SumAttr(attr) }},
		{Row: []string{fetchRow}, Col: dense, Execs: 1, Run: func() {
			buf := make([]storage.Word, rel.Schema.Width())
			for i := 0; i < 100; i++ {
				rel.RowValues((i*37)%rel.Rows(), buf)
			}
		}},
		{Row: []string{fetchRow}, Col: kv, Execs: 1, Run: func() {
			var buf []storage.Word
			for i := 0; i < 100; i++ {
				buf = store.MaterializeRow((i*37)%rel.Rows(), buf)
			}
		}},
	}
	return cells, func(times map[string]time.Duration) *Report {
		rep := &Report{
			ID:    "ablation-sparse",
			Title: fmt.Sprintf("Dense key-value lists vs. dense storage (CNET, %d x %d, ~%d non-null/row)", cfg.Products, cfg.Attrs, cfg.MeanSparse+5),
			Rows:  [][]string{{"footprint", fmtBytes(int64(rel.Rows()) * int64(rel.Schema.Width()) * 8), fmtBytes(store.Bytes())}},
		}
		return rep.grid([]string{"metric"}, cells, times)
	}
}
