package plan

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

func testCatalog(rows int) *Catalog {
	schema := storage.NewSchema("t",
		storage.Attribute{Name: "a", Type: storage.Int64},
		storage.Attribute{Name: "b", Type: storage.Float64},
		storage.Attribute{Name: "s", Type: storage.String},
	)
	b := storage.NewBuilder(schema)
	as := make([]int64, rows)
	bs := make([]storage.Word, rows)
	ss := make([]string, rows)
	for i := 0; i < rows; i++ {
		as[i] = int64(i % 10)
		bs[i] = storage.EncodeFloat(float64(i))
		ss[i] = []string{"x", "y"}[i%2]
	}
	b.SetInts(0, as).SetWords(1, bs).SetStrings(2, ss)
	return NewCatalog().Add(b.Build(storage.NSM(3)))
}

func TestCatalogLookup(t *testing.T) {
	c := testCatalog(10)
	if !c.Has("t") || c.Has("missing") {
		t.Error("Has broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("Table on unknown name must panic")
		}
	}()
	c.Table("missing")
}

func TestOutputSchemas(t *testing.T) {
	c := testCatalog(10)
	scan := Scan{Table: "t", Cols: []int{2, 0}}
	out := Output(scan, c)
	if out[0].Name != "s" || out[0].Type != storage.String || out[1].Name != "a" {
		t.Errorf("scan output = %v", out)
	}
	agg := Aggregate{Child: scan, GroupBy: []int{0}, Aggs: []expr.AggSpec{
		{Kind: expr.Count, Name: "n"},
		{Kind: expr.Avg, Arg: expr.IntCol(1), Name: "avg_a"},
	}}
	out = Output(agg, c)
	if len(out) != 3 || out[0].Name != "s" || out[1].Name != "n" || out[2].Type != storage.Float64 {
		t.Errorf("aggregate output = %v", out)
	}
	join := HashJoin{Left: scan, Right: Scan{Table: "t", Cols: []int{1}}, LeftKey: 1, RightKey: 0}
	if got := len(Output(join, c)); got != 3 {
		t.Errorf("join arity = %d, want 3", got)
	}
	proj := Project{Child: scan, Exprs: []expr.Expr{expr.IntConst(1)}, Names: []string{"one"}}
	if out := Output(proj, c); out[0].Name != "one" || out[0].Type != storage.Int64 {
		t.Errorf("project output = %v", out)
	}
	if out := Output(Insert{Table: "t"}, c); out[0].Name != "inserted" {
		t.Errorf("insert output = %v", out)
	}
}

func TestAllCols(t *testing.T) {
	c := testCatalog(1)
	got := AllCols(c.Table("t").Schema)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("AllCols = %v", got)
	}
}

func TestEstimateSelectivity(t *testing.T) {
	c := testCatalog(10000)
	cases := []struct {
		pred expr.Pred
		want float64
	}{
		{expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(3)}, 0.1},
		{expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(5)}, 0.5},
		{nil, 1.0},
		{expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(99)}, 0.0},
	}
	for _, tc := range cases {
		got := EstimateSelectivity(c, "t", tc.pred, 1000)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("selectivity = %v, want ~%v", got, tc.want)
		}
	}
	// Exhaustive when table is smaller than sample budget.
	got := EstimateSelectivity(c, "t", expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(3)}, 1_000_000)
	if got != 0.1 {
		t.Errorf("exhaustive selectivity = %v, want exactly 0.1", got)
	}
}
