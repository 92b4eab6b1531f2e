// Package cnet implements the paper's third benchmark: a synthetic CNET
// product catalog (Beckham, 2005). The data set's published properties —
// a very wide, sparsely populated relation (the real catalog has almost
// 3000 attributes with on average 11 non-null values per tuple, a shape
// typical for ORM class-hierarchy-to-single-table mappings) and a handful
// of always-set attributes (id, name, category, price, manufacturer) — are
// reproduced by a deterministic generator, like the authors' own
// (http://www.cwi.nl/~holger/generators/cnet). The four queries and their
// 1/1/100/10000 frequencies are the paper's Table V.
package cnet

import (
	"fmt"
	"math/rand"

	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config sizes the catalog.
type Config struct {
	Products   int
	Attrs      int // total attributes including the 5 dense ones (paper: ~3000)
	Categories int
	MeanSparse int // mean non-null sparse attributes per product (paper: ~6 + 5 dense = 11)
	Seed       int64
}

// DefaultConfig keeps CI runtimes sane; experiments scale Attrs up.
func DefaultConfig() Config {
	return Config{Products: 20000, Attrs: 300, Categories: 50, MeanSparse: 6, Seed: 1}
}

// Dense attribute positions.
const (
	ColID = iota
	ColName
	ColCategory
	ColPriceFrom
	ColManufacturer
	denseCols
)

// Data is the generated catalog (N-ary master relation).
type Data struct {
	Products *storage.Relation
}

// Generate builds the catalog. Sparse attributes cluster by category:
// products of one category populate the same attribute neighbourhood, as a
// class hierarchy mapped onto a single table would.
func Generate(cfg Config) *Data {
	if cfg.Products <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Attrs < denseCols+1 {
		cfg.Attrs = denseCols + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	attrs := make([]storage.Attribute, cfg.Attrs)
	attrs[ColID] = storage.Attribute{Name: "id", Type: storage.Int64}
	attrs[ColName] = storage.Attribute{Name: "name", Type: storage.String}
	attrs[ColCategory] = storage.Attribute{Name: "category", Type: storage.String}
	attrs[ColPriceFrom] = storage.Attribute{Name: "price_from", Type: storage.Int64}
	attrs[ColManufacturer] = storage.Attribute{Name: "manufacturer", Type: storage.String}
	for i := denseCols; i < cfg.Attrs; i++ {
		attrs[i] = storage.Attribute{Name: fmt.Sprintf("prop_%04d", i), Type: storage.Int64}
	}
	schema := storage.NewSchema("products", attrs...)

	n := cfg.Products
	ids := make([]int64, n)
	names := make([]string, n)
	cats := make([]string, n)
	prices := make([]int64, n)
	manus := make([]string, n)
	catPool := make([]string, cfg.Categories)
	for i := range catPool {
		catPool[i] = fmt.Sprintf("CATEGORY_%03d", i)
	}
	manuPool := make([]string, 80)
	for i := range manuPool {
		manuPool[i] = fmt.Sprintf("MANUFACTURER_%03d", i)
	}

	sparseCount := cfg.Attrs - denseCols
	sparse := make([][]storage.Word, sparseCount)
	for i := range sparse {
		col := make([]storage.Word, n)
		for j := range col {
			col[j] = storage.Null
		}
		sparse[i] = col
	}

	for p := 0; p < n; p++ {
		ids[p] = int64(p)
		names[p] = fmt.Sprintf("PRODUCT_%07d", p)
		cat := rng.Intn(cfg.Categories)
		cats[p] = catPool[cat]
		prices[p] = rng.Int63n(2000)
		manus[p] = manuPool[rng.Intn(len(manuPool))]
		// Category-clustered sparse population.
		if sparseCount > 0 {
			base := (cat * 13) % sparseCount
			k := rng.Intn(cfg.MeanSparse*2 + 1) // 0..2*mean, mean on average
			for j := 0; j < k; j++ {
				at := (base + rng.Intn(cfg.MeanSparse*4+1)) % sparseCount
				sparse[at][p] = storage.EncodeInt(rng.Int63n(10000))
			}
		}
	}

	b := storage.NewBuilder(schema)
	b.SetInts(ColID, ids).SetStrings(ColName, names).SetStrings(ColCategory, cats)
	b.SetInts(ColPriceFrom, prices).SetStrings(ColManufacturer, manus)
	for i := 0; i < sparseCount; i++ {
		b.SetWords(denseCols+i, sparse[i])
	}
	return &Data{Products: b.Build(storage.NSM(cfg.Attrs))}
}

// Catalog materializes the products table under a layout kind with an
// optional explicit layout.
func (d *Data) Catalog(kind string, override *storage.Layout) *plan.Catalog {
	w := d.Products.Schema.Width()
	l := d.Products.Layout
	switch kind {
	case "row":
		l = storage.NSM(w)
	case "column":
		l = storage.DSM(w)
	}
	if override != nil {
		l = *override
	}
	return plan.NewCatalog().Add(d.Products.WithLayout(l, par.Serial()))
}

// RegisterIndexes installs the hash primary-key index on products.id. The
// detail-page query Q4 runs 10000x per workload round (Table V); a catalog
// web application serves it by key, and with the index the per-layout
// difference becomes tuple-reconstruction cost — best on N-ary storage,
// slightly degraded on PDSM, worst on DSM, the paper's Figure 12 shape.
func RegisterIndexes(c *plan.Catalog) {
	rel := c.Table("products")
	c.AddIndex("products", ColID, index.BuildOn(index.NewHashIndex(rel.Rows()), rel, ColID, par.Serial()))
}

// Queries builds the Table V query set. The price-bucket equality of Q3,
// (price_from/10)*10 = $2, executes as the equivalent inclusive range
// [bucket, bucket+9].
func (d *Data) Queries(seed int64) map[int]plan.Node {
	rng := rand.New(rand.NewSource(seed))
	s := d.Products.Schema
	catParam := d.Products.Value(rng.Intn(d.Products.Rows()), ColCategory)
	priceBucket := (rng.Int63n(2000) / 10) * 10
	idParam := int64(rng.Intn(d.Products.Rows()))

	qs := map[int]plan.Node{}

	// Q1: category overview with product counts (freq 1).
	qs[1] = plan.Sort{
		Child: plan.Aggregate{
			Child:   plan.Scan{Table: "products", Cols: []int{ColCategory}},
			GroupBy: []int{0},
			Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "count"}},
		},
		Keys: []plan.SortKey{{Pos: 0}},
	}
	// Q2: price-range drilldown within a category (freq 1).
	qs[2] = plan.Sort{
		Child: plan.Aggregate{
			Child: plan.Project{
				Child: plan.Scan{
					Table:  "products",
					Filter: expr.Cmp{Attr: ColCategory, Op: expr.Eq, Val: catParam},
					Cols:   []int{ColPriceFrom},
				},
				Exprs: []expr.Expr{expr.Arith{Op: expr.Mul, L: expr.Arith{Op: expr.Div, L: expr.IntCol(0), R: expr.IntConst(10)}, R: expr.IntConst(10)}},
				Names: []string{"price"},
			},
			GroupBy: []int{0},
			Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "count"}},
		},
		Keys: []plan.SortKey{{Pos: 0}},
	}
	// Q3: product listing for a category and price bucket (freq 100).
	qs[3] = plan.Scan{
		Table: "products",
		Filter: expr.And{Preds: []expr.Pred{
			expr.Cmp{Attr: ColCategory, Op: expr.Eq, Val: catParam},
			expr.Between{Attr: ColPriceFrom, Lo: storage.EncodeInt(priceBucket), Hi: storage.EncodeInt(priceBucket + 9)},
		}},
		Cols: []int{ColID, ColName},
	}
	// Q4: product details page — select * by primary key (freq 10000).
	qs[4] = plan.Scan{
		Table:  "products",
		Filter: expr.Cmp{Attr: ColID, Op: expr.Eq, Val: storage.EncodeInt(idParam)},
		Cols:   plan.AllCols(s),
	}
	return qs
}

// Q4For builds the detail-page query for one product id — the harness
// executes Q4 with varying parameters, as the live site would, so point
// lookups are not artificially served from a hot cache line.
func (d *Data) Q4For(id int64) plan.Node {
	return plan.Scan{
		Table:  "products",
		Filter: expr.Cmp{Attr: ColID, Op: expr.Eq, Val: storage.EncodeInt(id)},
		Cols:   plan.AllCols(d.Products.Schema),
	}
}

// Frequencies is Table V's weighting.
var Frequencies = map[int]float64{1: 1, 2: 1, 3: 100, 4: 10000}

// Workload returns the Table V workload (queries weighted by frequency).
func (d *Data) Workload(seed int64) *workload.Workload {
	w := &workload.Workload{Name: "cnet"}
	for qi, p := range d.Queries(seed) {
		w.Add(fmt.Sprintf("Q%d", qi), p, Frequencies[qi])
	}
	return w
}
