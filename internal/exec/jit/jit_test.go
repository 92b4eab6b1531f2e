package jit

import (
	"math/rand"
	"testing"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The cross-engine differential suite in package exec covers semantics;
// these tests pin down the compiler's internal decisions: which plans take
// the scan-aggregate kernel (its full contract is in scanagg_test.go), how
// pipelines decompose, index sources and multi-match probe behaviour.

// testPools starts one pool per worker count, each closed when the test
// ends.
func testPools(t testing.TB, workers ...int) []*par.Pool {
	pools := make([]*par.Pool, len(workers))
	for i, w := range workers {
		pools[i] = par.NewPool(w)
		t.Cleanup(pools[i].Close)
	}
	return pools
}

func buildIdx(rel *storage.Relation) index.Index {
	return index.BuildOn(index.NewHashIndex(rel.Rows()), rel, 0, par.Serial())
}

func jitCatalog(rows int) *plan.Catalog {
	schema := storage.NewSchema("r",
		storage.Attribute{Name: "a", Type: storage.Int64},
		storage.Attribute{Name: "b", Type: storage.Int64},
		storage.Attribute{Name: "c", Type: storage.Int64},
		storage.Attribute{Name: "d", Type: storage.Int64},
		storage.Attribute{Name: "e", Type: storage.Int64},
	)
	b := storage.NewBuilder(schema)
	rng := rand.New(rand.NewSource(2))
	for attr := 0; attr < 5; attr++ {
		col := make([]int64, rows)
		for i := range col {
			col[i] = rng.Int63n(100)
		}
		b.SetInts(attr, col)
	}
	return plan.NewCatalog().Add(b.Build(storage.PDSM([]int{0}, []int{1, 2, 3, 4})))
}

func fig2cPlan() plan.Aggregate {
	return plan.Aggregate{
		Child: plan.Scan{
			Table:  "r",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(7)},
			Cols:   []int{1, 2, 3, 4},
		},
		Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sb"},
			{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sc"},
			{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sd"},
			{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "se"},
		},
	}
}

// scanAggregate runs v through the scan-aggregate kernel serially; ok is
// false when the kernel does not serve it.
func scanAggregate(v plan.Aggregate, c *plan.Catalog) ([][]storage.Word, bool) {
	k := compileScanAgg(compilePipe(v.Child, c, par.Serial(), &traceBuild{}, 0), v)
	if k == nil {
		return nil, false
	}
	return k.run(par.Serial(), nil, -1)
}

// TestFastPathTaken: the Figure 2c shape must be served by the
// scan-aggregate kernel and agree with the generic sink.
func TestFastPathTaken(t *testing.T) {
	c := jitCatalog(5000)
	v := fig2cPlan()
	fast, ok := scanAggregate(v, c)
	if !ok {
		t.Fatal("Figure 2c shape must take the scan-aggregate kernel")
	}
	slow := genericAggregate(compilePipe(v.Child, c, par.Serial(), &traceBuild{}, 0), v, par.Serial(), nil, -1)
	if len(fast) != 1 || len(slow) != 1 {
		t.Fatal("both paths must emit one row")
	}
	for i := range fast[0] {
		if fast[0][i] != slow[0][i] {
			t.Fatalf("kernel column %d = %d, generic = %d",
				i, storage.DecodeInt(fast[0][i]), storage.DecodeInt(slow[0][i]))
		}
	}
}

// TestFastPathRejections: shapes outside the kernel's contract fall back.
func TestFastPathRejections(t *testing.T) {
	c := jitCatalog(100)
	base := fig2cPlan()

	grouped := base
	grouped.GroupBy = []int{0}
	if _, ok := scanAggregate(grouped, c); ok {
		t.Error("grouping on a column without a dictionary must not take the kernel")
	}

	avg := base
	avg.Aggs = []expr.AggSpec{{Kind: expr.Avg, Arg: expr.IntCol(0), Name: "x"}}
	if _, ok := scanAggregate(avg, c); ok {
		t.Error("avg must not take the kernel")
	}

	arith := base
	arith.Aggs = []expr.AggSpec{{Kind: expr.Sum, Arg: expr.Arith{Op: expr.Add, L: expr.IntCol(0), R: expr.IntConst(1)}, Name: "x"}}
	if _, ok := scanAggregate(arith, c); ok {
		t.Error("computed aggregate arguments must not take the kernel")
	}
}

// TestPipelineDecomposition: a join plan compiles into a probe stage over
// the streaming side with the build side materialized.
func TestPipelineDecomposition(t *testing.T) {
	c := jitCatalog(200)
	dim := storage.NewSchema("dim",
		storage.Attribute{Name: "k", Type: storage.Int64},
		storage.Attribute{Name: "v", Type: storage.Int64})
	db := storage.NewBuilder(dim)
	db.SetInts(0, []int64{1, 2, 3}).SetInts(1, []int64{10, 20, 30})
	c.Add(db.Build(storage.NSM(2)))

	join := plan.HashJoin{
		Left:     plan.Scan{Table: "dim", Cols: []int{0, 1}},
		Right:    plan.Scan{Table: "r", Cols: []int{0, 1}},
		LeftKey:  0,
		RightKey: 0,
	}
	p := compilePipe(join, c, par.Serial(), &traceBuild{}, 0)
	if p.rel.Schema.Name != "r" {
		t.Error("probe side must stream the right child")
	}
	if len(p.stages) != 1 || p.stages[0].kind != stProbe {
		t.Fatalf("expected one probe stage, got %d stages", len(p.stages))
	}
	if p.outWidth != 4 {
		t.Errorf("join pipeline width = %d, want 4", p.outWidth)
	}
}

// TestProbeMultiMatch: a build side with duplicate keys multiplies rows.
func TestProbeMultiMatch(t *testing.T) {
	dup := storage.NewSchema("dup",
		storage.Attribute{Name: "k", Type: storage.Int64},
		storage.Attribute{Name: "tag", Type: storage.Int64})
	db := storage.NewBuilder(dup)
	db.SetInts(0, []int64{1, 1, 2})
	db.SetInts(1, []int64{100, 200, 300})
	probe := storage.NewSchema("p",
		storage.Attribute{Name: "k", Type: storage.Int64})
	pb := storage.NewBuilder(probe)
	pb.SetInts(0, []int64{1, 2, 9})
	c := plan.NewCatalog().
		Add(db.Build(storage.NSM(2))).
		Add(pb.Build(storage.NSM(1)))

	join := plan.HashJoin{
		Left:     plan.Scan{Table: "dup", Cols: []int{0, 1}},
		Right:    plan.Scan{Table: "p", Cols: []int{0}},
		LeftKey:  0,
		RightKey: 0,
	}
	res := New().Run(join, c)
	if res.Len() != 3 { // key 1 matches twice, key 2 once, key 9 never
		t.Fatalf("multi-match join rows = %d, want 3", res.Len())
	}
}

// TestIndexPipelinesSkipScan: with an index the pipeline iterates only the
// lookup result.
func TestIndexPipelinesSkipScan(t *testing.T) {
	c := jitCatalog(1000)
	relR := c.Table("r")
	// Build an index on attribute a.
	idxPlan := plan.Scan{Table: "r", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(7)}, Cols: []int{0, 1}}
	noIdx := New().Run(idxPlan, c)
	c.AddIndex("r", 0, buildIdx(relR))
	p := compilePipe(idxPlan, c, par.Serial(), &traceBuild{}, 0)
	if !p.useIndex {
		t.Fatal("indexed equality scan must use the index")
	}
	withIdx := New().Run(idxPlan, c)
	if !result.EqualUnordered(noIdx, withIdx) {
		t.Fatal("index path changed results")
	}
}

// TestMapStageWidthChange: projections mid-pipeline re-shape the registers.
func TestMapStageWidthChange(t *testing.T) {
	c := jitCatalog(500)
	q := plan.Aggregate{
		Child: plan.Project{
			Child: plan.Scan{Table: "r", Cols: []int{1, 2}},
			Exprs: []expr.Expr{
				expr.Arith{Op: expr.Div, L: expr.IntCol(0), R: expr.IntConst(10)},
			},
			Names: []string{"bucket"},
		},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
	}
	res := New().Run(q, c)
	if res.Len() == 0 || len(res.Rows[0]) != 2 {
		t.Fatalf("map-stage pipeline broken: %d rows, arity %d", res.Len(), len(res.Rows[0]))
	}
	var total int64
	for _, row := range res.Rows {
		total += storage.DecodeInt(row[1])
	}
	if total != 500 {
		t.Errorf("group counts sum to %d, want 500", total)
	}
}

// BenchmarkIndexExec measures point_hot's execution below the service: a
// prepared one-row hash-index lookup on a 200,000-row NSM orders table,
// run on a 2-worker pool as the service runs it.
func BenchmarkIndexExec(b *testing.B) {
	rel := ordersRelation(200_000, 1, false).WithLayout(storage.NSM(12), par.Serial())
	c := plan.NewCatalog().Add(rel)
	c.AddIndex("orders", 0, buildIdx(rel))
	pool := par.NewPool(2)
	defer pool.Close()
	prep := PrepareOpt(plan.Scan{
		Table:  "orders",
		Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(123_457)},
		Cols:   []int{0, 1, 2, 8, 10, 11},
	}, c, par.WithPool(pool))
	b.ReportAllocs()
	for b.Loop() {
		if prep.Exec().Len() != 1 {
			b.Fatal("the lookup must return one row")
		}
	}
}
