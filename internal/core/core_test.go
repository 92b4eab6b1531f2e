package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

func buildDB(rows int) (*DB, *storage.Schema) {
	schema := storage.NewSchema("events",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "kind", Type: storage.String},
		storage.Attribute{Name: "value", Type: storage.Int64},
		storage.Attribute{Name: "payload", Type: storage.Int64},
		storage.Attribute{Name: "extra", Type: storage.Int64},
	)
	rng := rand.New(rand.NewSource(4))
	ids := make([]int64, rows)
	kinds := make([]string, rows)
	vals := make([]int64, rows)
	pay := make([]int64, rows)
	extra := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
		kinds[i] = []string{"click", "view", "buy"}[rng.Intn(3)]
		vals[i] = rng.Int63n(100)
		pay[i] = rng.Int63n(1 << 30)
		extra[i] = rng.Int63n(1 << 30)
	}
	b := storage.NewBuilder(schema)
	b.SetInts(0, ids).SetStrings(1, kinds).SetInts(2, vals).SetInts(3, pay).SetInts(4, extra)
	db := Open()
	db.CreateTable(b)
	return db, schema
}

func buyQuery(db *DB, schema *storage.Schema) plan.Node {
	buy := db.Table("events").Dict(1).MustCode("buy")
	return plan.Aggregate{
		Child: plan.Scan{
			Table:  "events",
			Filter: expr.Cmp{Attr: 1, Op: expr.Eq, Val: buy},
			Cols:   []int{2},
		},
		Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "total"},
			{Kind: expr.Count, Name: "n"},
		},
	}
}

func TestQueryAndQueryWithAgree(t *testing.T) {
	db, schema := buildDB(2000)
	q := buyQuery(db, schema)
	ref := db.Query(q)
	for name := range Engines() {
		got, err := db.QueryWith(name, q)
		if err != nil {
			t.Fatal(err)
		}
		if !result.EqualUnordered(ref, got) {
			t.Errorf("engine %s disagrees with jit", name)
		}
	}
	if _, err := db.QueryWith("nope", q); err == nil {
		t.Error("unknown engine must error")
	}
}

func TestOptimizeLayoutsImprovesAndPreservesResults(t *testing.T) {
	db, schema := buildDB(30000)
	q := buyQuery(db, schema)
	before := db.Query(q)
	costBefore := db.EstimateCost(q)
	db.AddWorkload("buys", q, 100)
	changes := db.OptimizeLayouts()
	if len(changes) == 0 {
		t.Fatal("expected a layout change for the skewed workload")
	}
	if db.Table("events").Layout.Kind() == "row" {
		t.Error("layout should have moved away from pure NSM")
	}
	after := db.Query(q)
	if !result.EqualUnordered(before, after) {
		t.Fatal("re-layout changed query results")
	}
	if db.EstimateCost(q) >= costBefore {
		t.Error("estimated cost did not improve after optimization")
	}
	for _, ch := range changes {
		if ch.NewCost >= ch.OldCost {
			t.Errorf("%s: reported costs not improving: %v -> %v", ch.Table, ch.OldCost, ch.NewCost)
		}
	}
}

func TestIndexesSurviveRelayout(t *testing.T) {
	db, schema := buildDB(5000)
	db.CreateHashIndex("events", 0)
	point := plan.Scan{
		Table:  "events",
		Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(123)},
		Cols:   plan.AllCols(schema),
	}
	db.AddWorkload("point", point, 1000)
	db.AddWorkload("scan", buyQuery(db, schema), 1)
	db.OptimizeLayouts()
	res := db.Query(point)
	if res.Len() != 1 || storage.DecodeInt(res.Rows[0][0]) != 123 {
		t.Fatal("index lookup broken after re-layout")
	}
}

func TestAccessPatternExplain(t *testing.T) {
	db, schema := buildDB(1000)
	s := db.AccessPattern(buyQuery(db, schema))
	if !strings.Contains(s, "s_trav") || !strings.Contains(s, "rr_acc") {
		t.Errorf("pattern explain missing atoms: %s", s)
	}
}

func TestCreateTreeIndexUsable(t *testing.T) {
	db, schema := buildDB(1000)
	tx := db.BeginWrite()
	if err := tx.CreateIndex("events", 2, index.KindRBTree); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	res := db.Query(plan.Scan{
		Table:  "events",
		Filter: expr.Cmp{Attr: 2, Op: expr.Eq, Val: storage.EncodeInt(42)},
		Cols:   []int{0, 2},
	})
	for _, row := range res.Rows {
		if storage.DecodeInt(row[1]) != 42 {
			t.Fatal("tree index returned wrong rows")
		}
	}
	_ = schema
}
