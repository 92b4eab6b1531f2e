package jit

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec/bulk"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// recentLayout is the layout the served recent table is loaded in: id
// alone, the other seven columns together.
var recentLayout = storage.PDSM([]int{0}, []int{1, 2, 3, 4, 5, 6, 7})

// recentRelation builds a recent-shaped relation — id (counting up from
// 0), customer, m1, m2 (int64), price, discount (float64), status, region
// (dictionary strings) — in recentLayout. With nulls set, every 7th row
// has a Null customer and every 13th a Null region.
func recentRelation(rows int, seed int64, nulls bool) *storage.Relation {
	attrs := []storage.Attribute{{Name: "id"}, {Name: "customer"}, {Name: "m1"}, {Name: "m2"},
		{Name: "price", Type: storage.Float64}, {Name: "discount", Type: storage.Float64},
		{Name: "status", Type: storage.String}, {Name: "region", Type: storage.String}}
	dicts := make([]*storage.Dict, len(attrs))
	status, region := make([]string, ordersStatuses), make([]string, ordersRegions)
	for i := range status {
		status[i] = fmt.Sprintf("st-%d", i)
	}
	for i := range region {
		region[i] = fmt.Sprintf("region-%d", i)
	}
	dicts[6], dicts[7] = storage.BuildDict(status), storage.BuildDict(region)

	rng := rand.New(rand.NewSource(seed))
	ids, rest := make([]storage.Word, rows), make([]storage.Word, 0, rows*7)
	for row := range ids {
		ids[row] = storage.EncodeInt(int64(row))
		customer, reg := storage.EncodeInt(rng.Int63n(ordersCustomers)), storage.Word(rng.Intn(ordersRegions))
		if nulls && row%7 == 0 {
			customer = storage.Null
		}
		if nulls && row%13 == 0 {
			reg = storage.Null
		}
		rest = append(rest, customer,
			storage.EncodeInt(rng.Int63n(1000)), storage.EncodeInt(rng.Int63n(1000)),
			storage.EncodeFloat(float64(rng.Intn(100_000))/100), storage.EncodeFloat(float64(rng.Intn(100_000))/100),
			storage.Word(rng.Intn(ordersStatuses)), reg)
	}
	rel, err := storage.RestoreRelation(storage.NewSchema("recent", attrs...), recentLayout, [][]storage.Word{ids, rest}, dicts, rows)
	if err != nil {
		panic(err)
	}
	return rel
}

// widePlan is wide_result's plan: the first rows ids of recent, all eight
// columns.
func widePlan(rows int64) plan.Scan {
	return plan.Scan{Table: "recent", Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(rows)}, Cols: []int{0, 1, 2, 3, 4, 5, 6, 7}}
}

// TestProjectGatherMatchesSerial: projections whose passing rows all sit
// in the first 64K rows of a 100,000-row recent table, with Null cells,
// return serial jit's rows in order at 1, 2 and 4 workers, with the default
// morsels and with 1,000-row ones (not a multiple of the chunk), and bulk's
// rows as a multiset. The stage-free ones hand gathered blocks to the row
// sink; an interpreted predicate shrinks the selection before the gather;
// a Select and a Project stage take the gathered rows one by one; an index
// lookup longer than a block is gathered block by block.
func TestProjectGatherMatchesSerial(t *testing.T) {
	rel := recentRelation(100_000, 5, true)
	c := plan.NewCatalog().Add(rel)
	c.AddIndex("recent", 6, index.BuildOn(index.NewRBTree(), rel, 6, par.Serial()))
	cmp := func(attr int, op expr.CmpOp, v int64) expr.Cmp {
		return expr.Cmp{Attr: attr, Op: op, Val: storage.EncodeInt(v)}
	}
	orCustomers := expr.Or{Preds: []expr.Pred{cmp(1, expr.Lt, 100_000), cmp(1, expr.Gt, 900_000)}}
	// About 6,000 of status 3's 12,500 index rows have id < 50,000: many blocks.
	byStatus := plan.Scan{Table: "recent", Filter: expr.Conj(expr.Cmp{Attr: 6, Op: expr.Eq, Val: 3}, cmp(0, expr.Lt, 50_000)), Cols: []int{0, 2, 7}}
	plans := map[string]plan.Node{
		"wide":             widePlan(50_000),
		"unfiltered":       plan.Scan{Table: "recent", Cols: []int{7, 0, 6}},
		"no-columns":       plan.Scan{Table: "recent", Filter: cmp(0, expr.Lt, 3_000)},
		"interpreted":      plan.Scan{Table: "recent", Filter: expr.Conj(cmp(0, expr.Lt, 50_000), orCustomers), Cols: []int{0, 1, 7}},
		"only-complex":     plan.Scan{Table: "recent", Filter: orCustomers, Cols: []int{1, 4}},
		"select-stage":     plan.Select{Child: widePlan(50_000), Pred: expr.Conj(cmp(2, expr.Lt, 500), expr.NotNull{Attr: 7})},
		"project-stage":    plan.Project{Child: widePlan(40_000), Exprs: []expr.Expr{expr.Arith{Op: expr.Add, L: expr.IntCol(2), R: expr.IntCol(3)}, expr.Col{Attr: 7, Ty: storage.String}, expr.IntCol(0)}},
		"index":            byStatus,
		"index-stage":      plan.Select{Child: byStatus, Pred: cmp(1, expr.Lt, 500)},
		"no-columns-stage": plan.Project{Child: plan.Scan{Table: "recent", Filter: cmp(0, expr.Lt, 3_000)}, Exprs: []expr.Expr{expr.IntConst(7)}},
		"project-select": plan.Project{
			Child: plan.Select{Child: widePlan(60_000), Pred: orCustomers},
			Exprs: []expr.Expr{expr.IntCol(1), expr.Col{Attr: 5, Ty: storage.Float64}},
		},
	}
	pools := testPools(t, 1, 2, 4)
	for name, n := range plans {
		serial := New().Run(n, c)
		if want := bulk.New().Run(n, c); !result.EqualUnordered(serial, want) {
			t.Fatalf("%s: serial jit's %d rows are not bulk's %d", name, serial.Len(), want.Len())
		}
		if serial.Len() == 0 {
			t.Fatalf("%s: no rows pass", name)
		}
		for _, pool := range pools {
			for _, morsel := range []int{0, 1000} {
				workers, got := pool.Workers(), NewParallel(par.Options{Pool: pool, MorselRows: morsel}).Run(n, c)
				if !result.Equal(got, serial) {
					t.Errorf("%s, workers=%d morsel=%d: %d rows differ from serial jit's %d", name, workers, morsel, got.Len(), serial.Len())
				}
			}
		}
	}

	// With 4,096-row morsels, id < 8,192 passes every row of morsels 0 and
	// 1 and none of the others: the first two fill their last chunk, capped
	// at the rows left, exactly, and the others allocate nothing.
	n, opt := widePlan(8_192), par.Options{Pool: pools[1], MorselRows: 4096}
	p := compilePipe(n, c, opt, &traceBuild{}, 0)
	s := newRowSink(p, opt, nil)
	p.run(opt, nil, s)
	for m, o := range s.morsels {
		words := cap(o.chunk)
		for _, full := range o.full {
			words += cap(full)
		}
		want := 0
		if m < 2 {
			want = 4096 * p.outWidth
		}
		if o.rows*p.outWidth != want || words != want || len(o.chunk) != cap(o.chunk) {
			t.Errorf("morsel %d: %d rows in %d words, last chunk %d of %d, want %d words all used", m, o.rows, words, len(o.chunk), cap(o.chunk), want)
		}
	}
	if got, want := s.rows(), New().Run(n, c).Rows; !sameRows(got, want) {
		t.Errorf("capped chunks: %d rows differ from serial jit's %d", len(got), len(want))
	}
}

// BenchmarkProject is wide_result's execution below the service: its plan
// (id < 50,000, eight columns) prepared over a 100,000-row recent table in
// the served layout, at 1 and 2 workers. Each result is released, as the
// service releases it once the reply is written, so its rows' memory is
// recycled.
func BenchmarkProject(b *testing.B) {
	c := plan.NewCatalog().Add(recentRelation(100_000, 1, false))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prep := PrepareOpt(widePlan(50_000), c, par.WithPool(testPools(b, workers)[0]))
			b.ReportAllocs()
			for b.Loop() {
				res := prep.Exec()
				if res.Len() != 50_000 {
					b.Fatal("the plan must return 50,000 rows")
				}
				res.Release()
			}
		})
	}
}
