package jit

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec/bulk"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// ordersLayout is the layout the served orders table is optimized into:
// id with the two prices and status, customer alone, the four measures m1..m4
// together, m5 beside region (the group key of the grouped plans), m6
// alone.
var ordersLayout = storage.PDSM([]int{0, 8, 9, 10}, []int{1}, []int{2, 3, 4, 5}, []int{6, 11}, []int{7})

const (
	ordersCustomers = 1_000_000 // customer is uniform over [0, ordersCustomers)
	ordersRegions   = 64
	ordersStatuses  = 8
)

// ordersRelation builds an orders-shaped relation — id, customer, m1..m6
// (int64), price, discount (float64), status, region (dictionary strings)
// — in ordersLayout. With nulls set, every 7th row has a Null customer,
// every 11th a Null m5 and every 13th a Null region.
func ordersRelation(rows int, seed int64, nulls bool) *storage.Relation {
	attrs := []storage.Attribute{{Name: "id"}, {Name: "customer"}, {Name: "m1"}, {Name: "m2"}, {Name: "m3"},
		{Name: "m4"}, {Name: "m5"}, {Name: "m6"}, {Name: "price", Type: storage.Float64},
		{Name: "discount", Type: storage.Float64}, {Name: "status", Type: storage.String}, {Name: "region", Type: storage.String}}
	schema := storage.NewSchema("orders", attrs...)
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%02d", prefix, i)
		}
		return out
	}
	dicts := make([]*storage.Dict, len(attrs))
	dicts[10] = storage.BuildDict(names("st", ordersStatuses))
	dicts[11] = storage.BuildDict(names("region", ordersRegions))

	rng := rand.New(rand.NewSource(seed))
	parts := make([][]storage.Word, len(ordersLayout.Groups))
	for gi, g := range ordersLayout.Groups {
		parts[gi] = make([]storage.Word, rows*len(g))
	}
	vals := make([]storage.Word, len(attrs))
	for row := 0; row < rows; row++ {
		vals[0] = storage.EncodeInt(int64(row))
		vals[1] = storage.EncodeInt(rng.Int63n(ordersCustomers))
		for m := 2; m < 8; m++ {
			vals[m] = storage.EncodeInt(rng.Int63n(1000))
		}
		vals[8] = storage.EncodeFloat(float64(rng.Intn(100_000)) / 100)
		vals[9] = storage.EncodeFloat(float64(rng.Intn(100_000)) / 100)
		vals[10] = storage.Word(rng.Intn(ordersStatuses))
		vals[11] = storage.Word(rng.Intn(ordersRegions))
		if nulls {
			for attr, every := range map[int]int{1: 7, 6: 11, 11: 13} {
				if row%every == 0 {
					vals[attr] = storage.Null
				}
			}
		}
		for gi, g := range ordersLayout.Groups {
			for off, attr := range g {
				parts[gi][row*len(g)+off] = vals[attr]
			}
		}
	}
	rel, err := storage.RestoreRelation(schema, ordersLayout, parts, dicts, rows)
	if err != nil {
		panic(err)
	}
	return rel
}

// scanAggPlans are the benchmark's scan_agg plans over orders: sum(m6)
// unfiltered, then `customer < c` at selectivities 0.001, 0.01, 0.1 and 1,
// each as four sums and as sum(m5) grouped by region.
func scanAggPlans() []plan.Node {
	out := []plan.Node{plan.Aggregate{
		Child: plan.Scan{Table: "orders", Cols: []int{7}},
		Aggs:  []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_m6"}},
	}}
	for _, sel := range []float64{0.001, 0.01, 0.1, 1.0} {
		filter := expr.Cmp{Attr: 1, Op: expr.Lt, Val: storage.EncodeInt(int64(sel * ordersCustomers))}
		out = append(out,
			plan.Aggregate{
				Child: plan.Scan{Table: "orders", Filter: filter, Cols: []int{2, 3, 4, 5}},
				Aggs: []expr.AggSpec{
					{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_m1"},
					{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_m2"},
					{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sum_m3"},
					{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "sum_m4"},
				},
			},
			plan.Aggregate{
				Child:   plan.Scan{Table: "orders", Filter: filter, Cols: []int{11, 6}},
				GroupBy: []int{0},
				Aggs:    []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_m5"}},
			})
	}
	return out
}

// kernelCatalog holds the tables of the kernel's contract test: r (five
// int columns, the Figure 2c relation), orders with Nulls and a hash index
// on id, and wide, whose one string column has more distinct values than
// the kernel groups on.
func kernelCatalog() *plan.Catalog {
	c := jitCatalog(5000)
	orders := ordersRelation(20_000, 3, true)
	c.Add(orders)
	c.AddIndex("orders", 0, buildIdx(orders))
	vals := make([]string, maxDictGroups+100)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%05d", i)
	}
	b := storage.NewBuilder(storage.NewSchema("wide",
		storage.Attribute{Name: "s", Type: storage.String},
		storage.Attribute{Name: "n", Type: storage.Int64}))
	b.SetStrings(0, vals).SetInts(1, make([]int64, len(vals)))
	return c.Add(b.Build(storage.NSM(2)))
}

// TestScanAggKernel pins the kernel's contract: which aggregates it
// serves, and that what it serves equals genericAggregate row for row,
// group order included, serially and under the morsel scheduler.
func TestScanAggKernel(t *testing.T) {
	c := kernelCatalog()
	orders := func(filter expr.Pred, cols ...int) plan.Scan {
		return plan.Scan{Table: "orders", Filter: filter, Cols: cols}
	}
	lt := func(attr int, v int64) expr.Pred { return expr.Cmp{Attr: attr, Op: expr.Lt, Val: storage.EncodeInt(v)} }
	count := expr.AggSpec{Kind: expr.Count, Name: "n"}
	sum := func(reg int) expr.AggSpec { return expr.AggSpec{Kind: expr.Sum, Arg: expr.IntCol(reg), Name: "s"} }
	byRegion := func(aggs ...expr.AggSpec) plan.Aggregate {
		return plan.Aggregate{Child: orders(lt(1, 600_000), 11, 6, 7), GroupBy: []int{0}, Aggs: aggs}
	}
	withAgg := func(v plan.Aggregate, spec expr.AggSpec) plan.Aggregate {
		v.Aggs = []expr.AggSpec{spec}
		return v
	}
	cases := []struct {
		name   string
		v      plan.Aggregate
		served bool
	}{
		{"fig2c", fig2cPlan(), true},
		{"count-unfiltered", plan.Aggregate{Child: orders(nil, 0), Aggs: []expr.AggSpec{count, count}}, true},
		{"sums-and-count-two-tests", plan.Aggregate{
			Child: orders(expr.And{Preds: []expr.Pred{lt(1, 900_000), expr.NotNull{Attr: 11}}}, 2, 6),
			Aggs:  []expr.AggSpec{sum(1), count, sum(0), {Kind: expr.Count, Arg: expr.IntCol(1), Name: "c"}},
		}, true},
		{"grouped-null-keys", byRegion(sum(1), count, sum(2)), true},
		// An Or conjunct stays interpreted; the kernel folds what it keeps.
		{"interpreted-filter", plan.Aggregate{
			Child: orders(expr.Conj(lt(1, 900_000), expr.Or{Preds: []expr.Pred{lt(2, 100), lt(7, 300)}}), 11, 2, 6, 7),
			Aggs:  []expr.AggSpec{count, sum(1), sum(2), sum(3)},
		}, true},
		{"interpreted-filter-grouped", plan.Aggregate{
			Child:   orders(expr.Or{Preds: []expr.Pred{lt(1, 200_000), lt(6, 100)}}, 11, 6),
			GroupBy: []int{0},
			Aggs:    []expr.AggSpec{sum(1), count},
		}, true},
		{"grouped-no-nulls", plan.Aggregate{Child: orders(nil, 10, 2), GroupBy: []int{0}, Aggs: []expr.AggSpec{sum(1)}}, true},
		{"non-dictionary-key", plan.Aggregate{Child: orders(nil, 2, 6), GroupBy: []int{0}, Aggs: []expr.AggSpec{sum(1)}}, false},
		{"two-key-columns", plan.Aggregate{Child: orders(nil, 10, 11, 6), GroupBy: []int{0, 1}, Aggs: []expr.AggSpec{sum(2)}}, false},
		{"float-sum", plan.Aggregate{Child: orders(nil, 8), Aggs: []expr.AggSpec{{Kind: expr.Sum, Arg: expr.Col{Attr: 0, Ty: storage.Float64}, Name: "p"}}}, false},
		{"min", withAgg(byRegion(), expr.AggSpec{Kind: expr.Min, Arg: expr.IntCol(1), Name: "x"}), false},
		{"max", withAgg(fig2cPlan(), expr.AggSpec{Kind: expr.Max, Arg: expr.IntCol(0), Name: "x"}), false},
		{"avg", withAgg(fig2cPlan(), expr.AggSpec{Kind: expr.Avg, Arg: expr.IntCol(0), Name: "x"}), false},
		{"computed-argument", withAgg(fig2cPlan(), expr.AggSpec{Kind: expr.Sum,
			Arg: expr.Arith{Op: expr.Add, L: expr.IntCol(0), R: expr.IntConst(1)}, Name: "x"}), false},
		{"select-stage", plan.Aggregate{Child: plan.Select{Child: orders(nil, 2, 6), Pred: lt(0, 500)},
			Aggs: []expr.AggSpec{sum(1)}}, false},
		{"project-stage", plan.Aggregate{Child: plan.Project{Child: orders(nil, 2, 6),
			Exprs: []expr.Expr{expr.IntCol(1)}, Names: []string{"m5"}}, Aggs: []expr.AggSpec{sum(0)}}, false},
		{"index-source", plan.Aggregate{Child: orders(expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(5)}, 6),
			Aggs: []expr.AggSpec{sum(0)}}, false},
		{"dictionary-over-cap", plan.Aggregate{Child: plan.Scan{Table: "wide", Cols: []int{0, 1}},
			GroupBy: []int{0}, Aggs: []expr.AggSpec{count}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, opt := range []par.Options{par.Serial(), {Pool: testPools(t, 2)[0], MorselRows: 1000}} {
				p := compilePipe(tc.v.Child, c, opt, &traceBuild{}, 0)
				var got [][]storage.Word
				served := false
				if k := compileScanAgg(p, tc.v); k != nil {
					got, served = k.run(opt, nil, -1)
				}
				if served != tc.served {
					t.Fatalf("workers=%d: kernel served %v, want %v", opt.WorkerCount(), served, tc.served)
				}
				if !served {
					continue
				}
				want := genericAggregate(p, tc.v, opt, nil, -1)
				if !sameRows(got, want) {
					t.Fatalf("workers=%d: kernel returned %v, genericAggregate %v", opt.WorkerCount(), got, want)
				}
				if tc.v.GroupBy == nil && len(got) != 1 || tc.v.GroupBy != nil && len(got) < 2 {
					t.Fatalf("workers=%d: %d rows is no test of the kernel's grouping", opt.WorkerCount(), len(got))
				}
			}
		})
	}
}

func sameRows(a, b [][]storage.Word) bool {
	return result.Equal(&result.Set{Rows: a}, &result.Set{Rows: b})
}

// checkKernel runs v through the kernel (asserting it is served there),
// genericAggregate and bulk, and fails unless all three agree row for row.
func checkKernel(t *testing.T, v plan.Aggregate, c *plan.Catalog, opt par.Options) {
	t.Helper()
	if compileScanAgg(compilePipe(v.Child, c, opt, &traceBuild{}, 0), v) == nil {
		t.Fatalf("%+v: the kernel does not serve it", v)
	}
	got := PrepareOpt(v, c, opt).Exec()
	generic := genericAggregate(compilePipe(v.Child, c, opt, &traceBuild{}, 0), v, opt, nil, -1)
	if !sameRows(got.Rows, generic) {
		t.Fatalf("%+v: kernel %v, genericAggregate %v", v.Child, got.Rows, generic)
	}
	if want := bulk.New().Run(v, c); !result.Equal(got, want) {
		t.Fatalf("%+v: kernel %v, bulk %v", v.Child, got.Rows, want.Rows)
	}
}

// TestScanAggDifferential: the kernel, genericAggregate and bulk agree row
// for row over row, column and the served PDSM layout (which puts the
// group key beside a summed column), 1, 2 and 4 workers, morsels of 512
// rows, of 1,000 (not a multiple of the chunk) and the default, unfiltered
// and across selectivities 0 to 1, with Nulls in the tested column, in a
// summed column and in the group key.
func TestScanAggDifferential(t *testing.T) {
	rel := ordersRelation(10_000, 9, true)
	layouts := map[string]storage.Layout{"row": storage.NSM(12), "column": storage.DSM(12), "pdsm": ordersLayout}
	filters := map[string]expr.Pred{"unfiltered": nil}
	for _, s := range []float64{0, 0.001, 0.5, 1} {
		filters[fmt.Sprintf("s=%g", s)] = expr.Cmp{Attr: 1, Op: expr.Lt, Val: storage.EncodeInt(int64(s * ordersCustomers))}
	}
	pools := testPools(t, 1, 2, 4)
	for name, layout := range layouts {
		c := plan.NewCatalog().Add(rel.WithLayout(layout, par.Serial()))
		for _, pool := range pools {
			for _, morsel := range []int{512, 1000, 0} {
				workers, opt := pool.Workers(), par.Options{Pool: pool, MorselRows: morsel}
				for fname, filter := range filters {
					t.Run(fmt.Sprintf("%s/workers=%d/morsel=%d/%s", name, workers, morsel, fname), func(t *testing.T) {
						checkKernel(t, plan.Aggregate{
							Child: plan.Scan{Table: "orders", Filter: filter, Cols: []int{2, 3, 4, 5, 6}},
							Aggs: []expr.AggSpec{
								{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "m1"}, {Kind: expr.Sum, Arg: expr.IntCol(1), Name: "m2"},
								{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "m3"}, {Kind: expr.Sum, Arg: expr.IntCol(3), Name: "m4"},
								{Kind: expr.Sum, Arg: expr.IntCol(4), Name: "m5"}, {Kind: expr.Count, Name: "n"},
							},
						}, c, opt)
						checkKernel(t, plan.Aggregate{
							Child:   plan.Scan{Table: "orders", Filter: filter, Cols: []int{11, 6}},
							GroupBy: []int{0},
							Aggs:    []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "m5"}, {Kind: expr.Count, Name: "n"}},
						}, c, opt)
					})
				}
			}
		}
	}
}

// TestScanAggTests: every compiled test shape — each comparison operator
// at an ordinary value and at the edges 0 and Null (which some operators
// pass, and where some pass no word at all), Between, InSet and NotNull —
// agrees with genericAggregate and bulk, as a chunk's first test and as a
// later one.
func TestScanAggTests(t *testing.T) {
	c := plan.NewCatalog().Add(ordersRelation(10_000, 11, true))
	mid := storage.EncodeInt(ordersCustomers / 2)
	var preds []expr.Pred
	for _, op := range []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge} {
		for _, val := range []storage.Word{mid, 0, storage.Null} {
			preds = append(preds, expr.Cmp{Attr: 1, Op: op, Val: val})
		}
	}
	preds = append(preds,
		expr.Between{Attr: 1, Lo: storage.EncodeInt(1000), Hi: mid},
		expr.Between{Attr: 1, Lo: mid, Hi: storage.Null},
		expr.Between{Attr: 1, Lo: mid, Hi: storage.EncodeInt(1000)},
		expr.InSet{Attr: 11, Set: storage.NewCodeSet([]storage.Word{1, 5, 40}, ordersRegions)},
		expr.NotNull{Attr: 1},
	)
	outer := expr.Cmp{Attr: 6, Op: expr.Ge, Val: storage.EncodeInt(100)}
	pools := testPools(t, 1, 2)
	for _, p := range preds {
		for _, filter := range []expr.Pred{p, expr.And{Preds: []expr.Pred{outer, p}}} {
			v := plan.Aggregate{
				Child:   plan.Scan{Table: "orders", Filter: filter, Cols: []int{11, 6}},
				GroupBy: []int{0},
				Aggs:    []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "m5"}, {Kind: expr.Count, Name: "n"}},
			}
			for _, pool := range pools {
				checkKernel(t, v, c, par.Options{Pool: pool, MorselRows: 1000})
			}
		}
	}
}

// TestScanAggDictionaryGrowth: inserts that grow the group dictionary
// leave a plan prepared before them unchanged, and a plan re-prepared at
// the new version puts each code past the old Len in a group of its own.
func TestScanAggDictionaryGrowth(t *testing.T) {
	rel := ordersRelation(5000, 5, true)
	c := plan.NewCatalog().Add(rel)
	v := plan.Aggregate{
		Child:   plan.Scan{Table: "orders", Cols: []int{11, 6}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "n"}, {Kind: expr.Sum, Arg: expr.IntCol(1), Name: "m5"}},
	}
	opt := par.Options{Pool: testPools(t, 2)[0], MorselRows: 512}
	old := PrepareOpt(v, c, opt)
	before := old.Exec()

	next := rel.CloneForWrite()
	dict := next.Dict(11)
	oldLen := dict.Len()
	for i := 0; i < 300; i++ {
		vals := make([]storage.Word, 12)
		for a := range vals {
			vals[a] = storage.EncodeInt(int64(i))
		}
		vals[10] = 0
		vals[11] = dict.AppendCode(fmt.Sprintf("zz-new-%d", i%3))
		next.AppendRows(vals)
	}
	if dict.Len() != oldLen+3 {
		t.Fatalf("dictionary grew to %d, want %d", dict.Len(), oldLen+3)
	}
	if again := old.Exec(); !result.Equal(again, before) {
		t.Fatal("a plan prepared before the inserts changed its result")
	}
	nc := plan.NewCatalog().Add(next)
	checkKernel(t, v, nc, opt)
	grown := 0
	for _, row := range PrepareOpt(v, nc, opt).Exec().Rows {
		if row[0] != storage.Null && int(row[0]) >= oldLen {
			grown++
			if n := storage.DecodeInt(row[1]); n != 100 {
				t.Errorf("new code %d counts %d rows, want 100", row[0], n)
			}
		}
	}
	if grown != 3 {
		t.Fatalf("%d groups past the old dictionary length, want 3", grown)
	}
}

// TestScanAggKeysOutsideDictionary: an insert can store any word in a
// string column. Keys that are neither Null nor a dictionary code — the
// first word past Len, one further out, one whose low 32 bits are a code,
// and one with the sign bit set — each form a group of their own, as in
// genericAggregate and bulk, and the trace books the scan once. Each key
// is alone in its relation, so each must be caught on its own.
func TestScanAggKeysOutsideDictionary(t *testing.T) {
	rel := ordersRelation(5000, 7, true)
	n := storage.Word(rel.Dict(11).Len())
	v := plan.Aggregate{
		Child:   plan.Scan{Table: "orders", Cols: []int{11, 6}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "n"}, {Kind: expr.Sum, Arg: expr.IntCol(1), Name: "m5"}},
	}
	pool := testPools(t, 2)[0]
	for _, key := range []storage.Word{n, n + 10, 1<<32 | 3, storage.EncodeInt(5)} {
		next := rel.CloneForWrite()
		vals := make([]storage.Word, 12)
		for a := range vals {
			vals[a] = storage.EncodeInt(7)
		}
		vals[10], vals[11] = 0, key
		next.AppendRows(vals)
		c := plan.NewCatalog().Add(next)
		for _, opt := range []par.Options{par.Serial(), {Pool: pool, MorselRows: 512}} {
			t.Run(fmt.Sprintf("key=%#x/workers=%d", key, opt.WorkerCount()), func(t *testing.T) {
				checkKernel(t, v, c, opt)
				checkTrace(t, v, c, opt)
				n := int64(-1)
				for _, row := range PrepareOpt(v, c, opt).Exec().Rows {
					if row[0] == key {
						n = storage.DecodeInt(row[1])
					}
				}
				if n != 1 {
					t.Fatalf("the key's group counts %d rows, want 1", n)
				}
			})
		}
	}
}

var benchOrders = sync.OnceValue(func() *plan.Catalog {
	return plan.NewCatalog().Add(ordersRelation(1_000_000, 1, false))
})

// BenchmarkScanAgg measures each scan_agg plan's execution below the
// service: a prepared plan over a 1M-row orders relation in the served
// layout, executed at 1 and 2 workers.
func BenchmarkScanAgg(b *testing.B) {
	c := benchOrders()
	for i, n := range scanAggPlans() {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("plan=%d/workers=%d", i, workers), func(b *testing.B) {
				prep := PrepareOpt(n, c, par.WithPool(testPools(b, workers)[0]))
				b.ReportAllocs()
				for b.Loop() {
					prep.Exec()
				}
			})
		}
	}
}
