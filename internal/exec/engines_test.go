package exec_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/exec/bulk"
	"repro/internal/exec/hyrise"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/vector"
	"repro/internal/exec/volcano"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// testPool is the one pool the morsel-parallel jit engine of every
// differential test runs on.
var testPool *par.Pool

func TestMain(m *testing.M) {
	testPool = par.NewPool(3)
	code := m.Run()
	testPool.Close()
	os.Exit(code)
}

func engines() []exec.Engine {
	// The morsel-parallel jit engine rides along in every differential
	// test; tiny morsels force real multi-morsel merges on these small
	// tables.
	return []exec.Engine{
		volcano.New(), bulk.New(), hyrise.New(), jit.New(), vector.New(),
		jit.NewParallel(par.Options{Pool: testPool, MorselRows: 128}),
	}
}

// testTable builds a small relation with mixed types under all three
// layout kinds and returns one catalog per layout.
func testCatalogs(rows int, seed int64) map[string]*plan.Catalog {
	rng := rand.New(rand.NewSource(seed))
	schema := storage.NewSchema("t",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "grp", Type: storage.Int64},
		storage.Attribute{Name: "val", Type: storage.Int64},
		storage.Attribute{Name: "price", Type: storage.Float64},
		storage.Attribute{Name: "name", Type: storage.String},
		storage.Attribute{Name: "qty", Type: storage.Int64},
	)
	ids := make([]int64, rows)
	grps := make([]int64, rows)
	vals := make([]int64, rows)
	prices := make([]storage.Word, rows)
	names := make([]string, rows)
	qtys := make([]int64, rows)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		grps[i] = int64(rng.Intn(5))
		vals[i] = rng.Int63n(1000) - 500
		prices[i] = storage.EncodeFloat(float64(rng.Intn(10000)) / 100)
		names[i] = words[rng.Intn(len(words))]
		qtys[i] = rng.Int63n(50)
	}
	b := storage.NewBuilder(schema)
	b.SetInts(0, ids).SetInts(1, grps).SetInts(2, vals)
	b.SetWords(3, prices).SetStrings(4, names).SetInts(5, qtys)

	master := b.Build(storage.NSM(6))
	layouts := map[string]storage.Layout{
		"row":    storage.NSM(6),
		"column": storage.DSM(6),
		"hybrid": storage.PDSM([]int{0, 4}, []int{1, 2, 5}, []int{3}),
	}
	cats := map[string]*plan.Catalog{}
	for name, l := range layouts {
		cats[name] = plan.NewCatalog().Add(master.WithLayout(l, par.Serial()))
	}
	return cats
}

// runAll executes the plan on every engine and every layout and asserts
// all results agree (unordered); it returns one representative result.
func runAll(t *testing.T, mk func(rel *storage.Relation) plan.Node, cats map[string]*plan.Catalog) *result.Set {
	t.Helper()
	var ref *result.Set
	var refName string
	for layoutName, cat := range cats {
		rel := cat.Table("t")
		p := mk(rel)
		for _, e := range engines() {
			got := e.Run(p, cat)
			if ref == nil {
				ref, refName = got, e.Name()+"/"+layoutName
				continue
			}
			if !result.EqualUnordered(ref, got) {
				t.Fatalf("engine %s on %s disagrees with %s:\nref rows=%d got rows=%d",
					e.Name(), layoutName, refName, ref.Len(), got.Len())
			}
		}
	}
	return ref
}

func TestEnginesAgreeFilterScan(t *testing.T) {
	cats := testCatalogs(500, 1)
	res := runAll(t, func(rel *storage.Relation) plan.Node {
		return plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(3)},
			Cols:   []int{0, 2, 4},
		}
	}, cats)
	if res.Len() == 0 {
		t.Fatal("test premise: filter should match some rows")
	}
}

func TestEnginesAgreeComplexPredicates(t *testing.T) {
	cats := testCatalogs(400, 2)
	preds := []func(rel *storage.Relation) expr.Pred{
		func(*storage.Relation) expr.Pred {
			return expr.And{Preds: []expr.Pred{
				expr.Cmp{Attr: 2, Op: expr.Gt, Val: storage.EncodeInt(0)},
				expr.Cmp{Attr: 5, Op: expr.Le, Val: storage.EncodeInt(25)},
			}}
		},
		func(*storage.Relation) expr.Pred {
			return expr.Or{Preds: []expr.Pred{
				expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(0)},
				expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(4)},
			}}
		},
		func(*storage.Relation) expr.Pred {
			return expr.Between{Attr: 3, Lo: storage.EncodeFloat(10), Hi: storage.EncodeFloat(50)}
		},
		func(rel *storage.Relation) expr.Pred {
			set := rel.Dict(4).MatchCodes(func(s string) bool { return strings.HasPrefix(s, "a") || strings.HasPrefix(s, "g") })
			return expr.InSet{Attr: 4, Set: set}
		},
	}
	for i, mkPred := range preds {
		res := runAll(t, func(rel *storage.Relation) plan.Node {
			return plan.Scan{Table: "t", Filter: mkPred(rel), Cols: []int{0, 1, 2, 3, 4, 5}}
		}, cats)
		if res.Len() == 0 {
			t.Errorf("pred %d matched nothing; weak test", i)
		}
	}
}

func TestEnginesAgreeProjection(t *testing.T) {
	cats := testCatalogs(300, 3)
	runAll(t, func(rel *storage.Relation) plan.Node {
		scan := plan.Scan{Table: "t", Cols: []int{2, 5}}
		return plan.Project{
			Child: scan,
			Exprs: []expr.Expr{
				expr.Arith{Op: expr.Mul, L: expr.Arith{Op: expr.Div, L: expr.IntCol(0), R: expr.IntConst(10)}, R: expr.IntConst(10)},
				expr.Arith{Op: expr.Add, L: expr.IntCol(1), R: expr.IntConst(100)},
			},
			Names: []string{"bucket", "qty100"},
		}
	}, cats)
}

func TestEnginesAgreeUngroupedAggregate(t *testing.T) {
	cats := testCatalogs(600, 4)
	res := runAll(t, func(rel *storage.Relation) plan.Node {
		scan := plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(2)}, Cols: []int{2, 3, 5}}
		return plan.Aggregate{Child: scan, Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_val"},
			{Kind: expr.Sum, Arg: expr.Col{Attr: 1, Ty: storage.Float64}, Name: "sum_price"},
			{Kind: expr.Min, Arg: expr.IntCol(2), Name: "min_qty"},
			{Kind: expr.Max, Arg: expr.IntCol(2), Name: "max_qty"},
			{Kind: expr.Avg, Arg: expr.IntCol(0), Name: "avg_val"},
			{Kind: expr.Count, Name: "cnt"},
		}}
	}, cats)
	if res.Len() != 1 {
		t.Fatalf("ungrouped aggregate must return one row, got %d", res.Len())
	}
}

// TestJitFastPathShape exercises the paper's Figure 2c query shape (single
// equality filter, four integer sums) which runs in the jit engine's
// scan-aggregate kernel, and checks it against the other engines.
func TestJitFastPathShape(t *testing.T) {
	cats := testCatalogs(700, 5)
	res := runAll(t, func(rel *storage.Relation) plan.Node {
		scan := plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(1)}, Cols: []int{0, 2, 5, 1}}
		return plan.Aggregate{Child: scan, Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "s0"},
			{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "s1"},
			{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "s2"},
			{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "s3"},
		}}
	}, cats)
	if res.Len() != 1 {
		t.Fatal("the Figure 2c aggregate must produce one row")
	}
}

func TestEnginesAgreeGroupBy(t *testing.T) {
	cats := testCatalogs(500, 6)
	res := runAll(t, func(rel *storage.Relation) plan.Node {
		scan := plan.Scan{Table: "t", Cols: []int{1, 4, 2}}
		return plan.Aggregate{Child: scan, GroupBy: []int{0, 1}, Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "cnt"},
			{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sum_val"},
		}}
	}, cats)
	if res.Len() < 2 {
		t.Fatal("group-by should yield multiple groups")
	}
}

func TestEnginesAgreeJoin(t *testing.T) {
	cats := testCatalogs(200, 7)
	// Add a dimension table to every catalog.
	dim := storage.NewSchema("d",
		storage.Attribute{Name: "grp", Type: storage.Int64},
		storage.Attribute{Name: "label", Type: storage.Int64},
	)
	for _, cat := range cats {
		db := storage.NewBuilder(dim)
		db.SetInts(0, []int64{0, 1, 2, 3, 4})
		db.SetInts(1, []int64{100, 101, 102, 103, 104})
		cat.Add(db.Build(storage.NSM(2)))
	}
	res := runAll(t, func(rel *storage.Relation) plan.Node {
		left := plan.Scan{Table: "d", Cols: []int{0, 1}}
		right := plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 2, Op: expr.Gt, Val: storage.EncodeInt(200)}, Cols: []int{1, 2}}
		return plan.HashJoin{Left: left, Right: right, LeftKey: 0, RightKey: 0}
	}, cats)
	if res.Len() == 0 {
		t.Fatal("join should produce rows")
	}
	if len(res.Cols) != 4 {
		t.Fatalf("join output arity = %d, want 4", len(res.Cols))
	}
}

func TestEnginesAgreeJoinAggregate(t *testing.T) {
	cats := testCatalogs(300, 8)
	dim := storage.NewSchema("d2",
		storage.Attribute{Name: "grp", Type: storage.Int64},
		storage.Attribute{Name: "weight", Type: storage.Int64},
	)
	for _, cat := range cats {
		db := storage.NewBuilder(dim)
		db.SetInts(0, []int64{0, 1, 2, 3, 4})
		db.SetInts(1, []int64{1, 2, 3, 4, 5})
		cat.Add(db.Build(storage.DSM(2)))
	}
	runAll(t, func(rel *storage.Relation) plan.Node {
		join := plan.HashJoin{
			Left:     plan.Scan{Table: "d2", Cols: []int{0, 1}},
			Right:    plan.Scan{Table: "t", Cols: []int{1, 5}},
			LeftKey:  0,
			RightKey: 0,
		}
		return plan.Aggregate{Child: join, GroupBy: []int{1}, Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "sum_qty"},
			{Kind: expr.Count, Name: "cnt"},
		}}
	}, cats)
}

func TestEnginesAgreeSortLimit(t *testing.T) {
	cats := testCatalogs(250, 9)
	var results []*result.Set
	for _, cat := range cats {
		for _, e := range engines() {
			p := plan.Limit{N: 10, Child: plan.Sort{
				Child: plan.Scan{Table: "t", Cols: []int{2, 0}},
				Keys:  []plan.SortKey{{Pos: 0, Desc: true}, {Pos: 1}},
			}}
			results = append(results, e.Run(p, cat))
		}
	}
	// Sorted output must agree in exact order.
	for i := 1; i < len(results); i++ {
		if !result.Equal(results[0], results[i]) {
			t.Fatalf("sorted results disagree between run 0 and run %d", i)
		}
	}
	if results[0].Len() != 10 {
		t.Fatalf("limit produced %d rows, want 10", results[0].Len())
	}
}

func TestEnginesAgreeEmptyMatch(t *testing.T) {
	cats := testCatalogs(100, 10)
	res := runAll(t, func(rel *storage.Relation) plan.Node {
		return plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(-99)}, Cols: []int{0}}
	}, cats)
	if res.Len() != 0 {
		t.Fatal("no rows should match")
	}
	// Ungrouped aggregate over empty input still yields one row.
	res = runAll(t, func(rel *storage.Relation) plan.Node {
		scan := plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(-99)}, Cols: []int{2}}
		return plan.Aggregate{Child: scan, Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "cnt"},
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "s"},
		}}
	}, cats)
	if res.Len() != 1 || storage.DecodeInt(res.Rows[0][0]) != 0 {
		t.Fatal("empty aggregate must return a single zero-count row")
	}
}

func TestEnginesIndexedScanEqualsUnindexed(t *testing.T) {
	cats := testCatalogs(400, 11)
	mk := func(rel *storage.Relation) plan.Node {
		return plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(123)}, Cols: []int{0, 2, 4}}
	}
	ref := runAll(t, mk, cats)
	// Register indexes (hash on id, rbtree on grp) and re-run.
	for _, cat := range cats {
		rel := cat.Table("t")
		cat.AddIndex("t", 0, index.BuildOn(index.NewHashIndex(rel.Rows()), rel, 0, par.Serial()))
		cat.AddIndex("t", 1, index.BuildOn(index.NewRBTree(), rel, 1, par.Serial()))
	}
	for layoutName, cat := range cats {
		for _, e := range engines() {
			got := e.Run(mk(cat.Table("t")), cat)
			if !result.EqualUnordered(ref, got) {
				t.Fatalf("indexed %s/%s differs from unindexed scan", e.Name(), layoutName)
			}
		}
	}
	// Conjunction containing an indexed equality must use the index and
	// apply the residue.
	mk2 := func(rel *storage.Relation) plan.Node {
		return plan.Scan{Table: "t", Filter: expr.And{Preds: []expr.Pred{
			expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(2)},
			expr.Cmp{Attr: 2, Op: expr.Gt, Val: storage.EncodeInt(0)},
		}}, Cols: []int{0, 1, 2}}
	}
	ref2 := runAll(t, mk2, cats)
	if ref2.Len() == 0 {
		t.Fatal("residual test premise: should match rows")
	}
}

func TestEnginesInsertAndReadBack(t *testing.T) {
	for _, e := range engines() {
		cats := testCatalogs(50, 12)
		cat := cats["hybrid"]
		rel := cat.Table("t")
		cat.AddIndex("t", 0, index.BuildOn(index.NewHashIndex(rel.Rows()), rel, 0, par.Serial()))
		nameCode := rel.Dict(4).AppendCode("inserted")
		row := []storage.Word{
			storage.EncodeInt(9999), storage.EncodeInt(1), storage.EncodeInt(7),
			storage.EncodeFloat(1.25), nameCode, storage.EncodeInt(3),
		}
		res := e.Run(plan.Insert{Table: "t", Rows: [][]storage.Word{row}}, cat)
		if storage.DecodeInt(res.Rows[0][0]) != 1 {
			t.Fatalf("%s: insert result = %v", e.Name(), res.Rows)
		}
		// Point query through the maintained index.
		got := e.Run(plan.Scan{Table: "t", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(9999)}, Cols: []int{0, 4, 5}}, cat)
		if got.Len() != 1 || got.Rows[0][1] != nameCode {
			t.Fatalf("%s: inserted row not found via index", e.Name())
		}
	}
}

// TestEnginesRandomizedProperty cross-checks all engines on generated
// conjunctive scan/aggregate plans over every layout. The seeds are a fixed
// list, and a failure names its seed (replay it with -run
// 'TestEnginesRandomizedProperty/seed=N$'). Tables reach ~3,000 rows, so
// scans cross 1,024-row chunk edges. Seeds cycle through four plan shapes:
// a plain scan; an index lookup on grp with the random residual tests; that
// lookup with an Or beside them, which no engine compiles to a test; and a
// plain scan with the Or.
func TestEnginesRandomizedProperty(t *testing.T) {
	ops := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cats := testCatalogs(rng.Intn(3000)+20, seed)
			var preds []expr.Pred
			for i := 0; i < rng.Intn(3)+1; i++ {
				attr := []int{0, 1, 2, 5}[rng.Intn(4)]
				preds = append(preds, expr.Cmp{
					Attr: attr,
					Op:   ops[rng.Intn(len(ops))],
					Val:  storage.EncodeInt(rng.Int63n(1000) - 500),
				})
			}
			shape := seed % 4
			if shape == 1 || shape == 2 {
				for _, cat := range cats {
					rel := cat.Table("t")
					cat.AddIndex("t", 1, index.BuildOn(index.NewHashIndex(rel.Rows()), rel, 1, par.Serial()))
				}
				key := expr.Cmp{Attr: 1, Op: expr.Eq, Val: storage.EncodeInt(rng.Int63n(5))}
				preds = append([]expr.Pred{key}, preds...)
			}
			if shape >= 2 {
				preds = append(preds, expr.Or{Preds: []expr.Pred{
					expr.Cmp{Attr: 2, Op: expr.Lt, Val: storage.EncodeInt(rng.Int63n(1000) - 500)},
					expr.Cmp{Attr: 5, Op: expr.Ge, Val: storage.EncodeInt(rng.Int63n(50))},
				}})
			}
			var node plan.Node = plan.Scan{Table: "t", Filter: expr.And{Preds: preds}, Cols: []int{0, 1, 2, 5}}
			if rng.Intn(2) == 0 {
				node = plan.Aggregate{Child: node, GroupBy: []int{1}, Aggs: []expr.AggSpec{
					{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "s"},
					{Kind: expr.Count, Name: "c"},
				}}
			}
			var ref *result.Set
			for layout, cat := range cats {
				for _, e := range engines() {
					got := e.Run(node, cat)
					if ref == nil {
						ref = got
					} else if !result.EqualUnordered(ref, got) {
						t.Fatalf("%s on %s returns %d rows, differing from %d: %+v", e.Name(), layout, got.Len(), ref.Len(), node)
					}
				}
			}
		})
	}
}
