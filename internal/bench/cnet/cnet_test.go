package cnet

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/exec/bulk"
	"repro/internal/exec/hyrise"
	"repro/internal/exec/jit"
	"repro/internal/exec/result"
	"repro/internal/exec/volcano"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/storage"
)

func smallCNET() *Data {
	return Generate(Config{Products: 3000, Attrs: 60, Categories: 12, MeanSparse: 6, Seed: 1})
}

// handHybrid is the intuition-guided partial decomposition for Table V's
// workload: the browsing keys get narrow partitions, id+name are
// collocated for the listing query Q3, and the sparse remainder stays
// N-ary for the point query Q4.
func handHybrid(d *Data) storage.Layout {
	w := d.Products.Schema.Width()
	rest := make([]int, 0, w-denseCols)
	for i := denseCols; i < w; i++ {
		rest = append(rest, i)
	}
	return storage.PDSM(
		[]int{ColID, ColName},
		[]int{ColCategory},
		[]int{ColPriceFrom},
		[]int{ColManufacturer},
		rest,
	)
}

func TestGenerateShape(t *testing.T) {
	d := smallCNET()
	rel := d.Products
	if rel.Rows() != 3000 || rel.Schema.Width() != 60 {
		t.Fatal("catalog shape wrong")
	}
	// Dense attributes never null; ids unique.
	seen := map[storage.Word]bool{}
	for r := 0; r < rel.Rows(); r++ {
		for _, a := range []int{ColID, ColName, ColCategory, ColPriceFrom, ColManufacturer} {
			if rel.Value(r, a) == storage.Null {
				t.Fatal("dense attribute is null")
			}
		}
		id := rel.Value(r, ColID)
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
	// Sparsity: mean non-null sparse attrs per product near MeanSparse.
	var nonNull int
	for r := 0; r < rel.Rows(); r++ {
		for a := denseCols; a < rel.Schema.Width(); a++ {
			if rel.Value(r, a) != storage.Null {
				nonNull++
			}
		}
	}
	mean := float64(nonNull) / float64(rel.Rows())
	if mean < 2 || mean > 10 {
		t.Errorf("mean non-null sparse attrs = %.2f, want near 6", mean)
	}
}

func TestQueriesAgreeAcrossEnginesAndLayouts(t *testing.T) {
	d := smallCNET()
	engines := []exec.Engine{volcano.New(), bulk.New(), hyrise.New(), jit.New()}
	hybrid := handHybrid(d)
	cats := map[string]*plan.Catalog{
		"row":    d.Catalog("row", nil),
		"column": d.Catalog("column", nil),
		"hybrid": d.Catalog("", &hybrid),
	}
	qs := d.Queries(3)
	for qi, p := range qs {
		var ref *result.Set
		var refDesc string
		for name, cat := range cats {
			for _, e := range engines {
				got := e.Run(p, cat)
				if ref == nil {
					ref, refDesc = got, e.Name()+"/"+name
					continue
				}
				if !result.EqualUnordered(ref, got) {
					t.Fatalf("CNET Q%d: %s/%s != %s", qi, e.Name(), name, refDesc)
				}
			}
		}
		if qi != 3 && ref.Len() == 0 { // Q3's bucket may be empty for some seeds
			t.Errorf("CNET Q%d returned no rows", qi)
		}
	}
}

// TestQ4ReturnsOneFullTuple: the detail page returns exactly the product
// with all attributes (mostly NULL).
func TestQ4ReturnsOneFullTuple(t *testing.T) {
	d := smallCNET()
	cat := d.Catalog("row", nil)
	res := jit.New().Run(d.Queries(3)[4], cat)
	if res.Len() != 1 {
		t.Fatalf("Q4 rows = %d, want 1", res.Len())
	}
	if len(res.Rows[0]) != d.Products.Schema.Width() {
		t.Fatalf("Q4 arity = %d, want %d", len(res.Rows[0]), d.Products.Schema.Width())
	}
}

// TestOptimizerPrefersNarrowPartitionsForBrowsing: under the Table V
// weighting, the cost model must rank the hand-built hybrid above both
// pure layouts — the paper's Figure 12 headline (hybrid >10x better than
// row, ~4x better than column overall).
func TestOptimizerPrefersNarrowPartitionsForBrowsing(t *testing.T) {
	d := Generate(Config{Products: 8000, Attrs: 80, Categories: 20, MeanSparse: 6, Seed: 2})
	cat := d.Catalog("row", nil)
	RegisterIndexes(cat)
	est := costmodel.NewEstimator(cat, mem.TableIII())
	w := d.Workload(3)
	width := d.Products.Schema.Width()

	costRow := w.Cost(est, map[string]storage.Layout{"products": storage.NSM(width)})
	costCol := w.Cost(est, map[string]storage.Layout{"products": storage.DSM(width)})
	hybrid := handHybrid(d)
	costHyb := w.Cost(est, map[string]storage.Layout{"products": hybrid})
	if !(costHyb < costRow) {
		t.Errorf("hybrid (%g) should beat row (%g)", costHyb, costRow)
	}
	if !(costHyb < costCol) {
		t.Errorf("hybrid (%g) should beat column (%g)", costHyb, costCol)
	}

	// BPi should find something at least as good as the pure layouts too.
	o := layout.NewOptimizer(est)
	best, costBest := o.Optimize("products", w)
	if err := best.Validate(width); err != nil {
		t.Fatal(err)
	}
	if costBest > costRow || costBest > costCol {
		t.Errorf("BPi result (%g) worse than a pure layout (row %g, col %g)", costBest, costRow, costCol)
	}
}
