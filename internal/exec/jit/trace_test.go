package jit

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/exec/bulk"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The trace oracle checks EXPLAIN ANALYZE against plain executions: every
// operator's counts must equal what running the subplan rooted at that
// operator returns, for any worker count and layout. It uses only the
// public surface (PrepareOpt, Exec, NewTrace, ExecTraced, Report), so it
// holds whatever loop the counts come from.

const (
	oracleRows   = 5000
	oracleMorsel = 512 // 10 morsels over oracleRows: real multi-morsel merges
)

// oracleCatalogs returns one catalog per layout over the same data: r (five
// int columns with values 0..99 and a hash index on e), dim (unique keys
// 0..49), dup (keys 0..39, each one to three times) and orders (with Nulls,
// see ordersRelation).
func oracleCatalogs() map[string]*plan.Catalog {
	rng := rand.New(rand.NewSource(23))
	ints := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	intAttrs := func(names ...string) []storage.Attribute {
		attrs := make([]storage.Attribute, len(names))
		for i, n := range names {
			attrs[i] = storage.Attribute{Name: n, Type: storage.Int64}
		}
		return attrs
	}

	rb := storage.NewBuilder(storage.NewSchema("r", intAttrs("a", "b", "c", "d", "e")...))
	for attr := 0; attr < 5; attr++ {
		rb.SetInts(attr, ints(oracleRows, func(int) int64 { return rng.Int63n(100) }))
	}
	r := rb.Build(storage.NSM(5))

	db := storage.NewBuilder(storage.NewSchema("dim", intAttrs("k", "v")...))
	db.SetInts(0, ints(50, func(i int) int64 { return int64(i) }))
	db.SetInts(1, ints(50, func(i int) int64 { return int64(10 * i) }))
	dim := db.Build(storage.NSM(2))

	var dupKeys []int64
	for k := int64(0); k < 40; k++ {
		for j := int64(0); j <= k%3; j++ {
			dupKeys = append(dupKeys, k)
		}
	}
	ub := storage.NewBuilder(storage.NewSchema("dup", intAttrs("k", "tag")...))
	ub.SetInts(0, dupKeys)
	ub.SetInts(1, ints(len(dupKeys), func(i int) int64 { return int64(i) }))
	dup := ub.Build(storage.NSM(2))

	orders := ordersRelation(oracleRows, 23, true)

	cats := map[string]*plan.Catalog{}
	for name, layout := range map[string]func(int) storage.Layout{"row": storage.NSM, "column": storage.DSM} {
		rel := r.WithLayout(layout(5), par.Serial())
		c := plan.NewCatalog().
			Add(rel).
			Add(dim.WithLayout(layout(2), par.Serial())).
			Add(dup.WithLayout(layout(2), par.Serial())).
			Add(orders.WithLayout(layout(12), par.Serial()))
		c.AddIndex("r", 4, index.BuildOn(index.NewHashIndex(rel.Rows()), rel, 4, par.Serial()))
		cats[name] = c
	}
	return cats
}

type oraclePlan struct {
	name string
	node plan.Node
}

func oraclePlans() []oraclePlan {
	cmp := func(attr int, op expr.CmpOp, v int64) expr.Pred {
		return expr.Cmp{Attr: attr, Op: op, Val: storage.EncodeInt(v)}
	}
	scanR := func(filter expr.Pred, cols ...int) plan.Scan {
		return plan.Scan{Table: "r", Filter: filter, Cols: cols}
	}
	filtered := plan.Select{Child: scanR(cmp(1, expr.Ge, 10), 0, 1, 2), Pred: cmp(2, expr.Lt, 50)}
	grouped := plan.Aggregate{
		Child:   scanR(cmp(0, expr.Lt, 50), 1, 2),
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "n"},
			{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "s"},
		},
	}
	return []oraclePlan{
		{"bare-scan", scanR(nil, 0, 1, 2)},
		{"filtered-scan", scanR(cmp(0, expr.Lt, 30), 0, 1)},
		{"filter-stage", filtered},
		{"map-stage", plan.Project{
			Child: filtered,
			Exprs: []expr.Expr{expr.Arith{Op: expr.Add, L: expr.IntCol(0), R: expr.IntCol(1)}, expr.IntCol(2)},
			Names: []string{"ab", "c"},
		}},
		{"single-match-probe", plan.HashJoin{
			Left:  plan.Scan{Table: "dim", Cols: []int{0, 1}},
			Right: scanR(cmp(1, expr.Lt, 70), 0, 1),
		}},
		// A stage after a multi-match probe counts every match it sees.
		{"multi-match-probe", plan.Select{
			Child: plan.HashJoin{
				Left:  plan.Scan{Table: "dup", Cols: []int{0, 1}},
				Right: scanR(nil, 0, 2),
			},
			Pred: cmp(1, expr.Lt, 50),
		}},
		// The Figure 2c shape: the scan-aggregate kernel, ungrouped.
		{"fast-aggregate", plan.Aggregate{
			Child: scanR(cmp(0, expr.Eq, 7), 1, 2, 3, 4),
			Aggs: []expr.AggSpec{
				{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sb"},
				{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sc"},
				{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sd"},
				{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "se"},
			},
		}},
		{"grouped-aggregate", grouped},
		// The kernel behind the interpreted fallback: an Or conjunct
		// shrinks each chunk's selection before the kernel folds it.
		{"kernel-complex-filter", plan.Aggregate{
			Child: scanR(expr.Conj(cmp(0, expr.Lt, 80), expr.Or{Preds: []expr.Pred{cmp(1, expr.Lt, 20), cmp(2, expr.Ge, 70)}}), 1, 2, 3),
			Aggs: []expr.AggSpec{
				{Kind: expr.Count, Name: "n"},
				{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sb"},
				{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sd"},
			},
		}},
		// The kernel's grouped form: dictionary codes as group slots, Null
		// keys in a slot of their own.
		{"dict-grouped-null-keys", plan.Aggregate{
			Child:   plan.Scan{Table: "orders", Filter: cmp(1, expr.Lt, 600_000), Cols: []int{11, 6}},
			GroupBy: []int{0},
			Aggs: []expr.AggSpec{
				{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "m5"},
				{Kind: expr.Count, Name: "n"},
			},
		}},
		{"grouped-over-map", plan.Aggregate{
			Child: plan.Project{
				Child: scanR(nil, 1, 2),
				Exprs: []expr.Expr{expr.Arith{Op: expr.Div, L: expr.IntCol(0), R: expr.IntConst(10)}},
				Names: []string{"bucket"},
			},
			GroupBy: []int{0},
			Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
		}},
		{"topn-over-scan", plan.Limit{N: 25, Child: plan.Sort{
			Keys:  []plan.SortKey{{Pos: 1, Desc: true}},
			Child: scanR(cmp(0, expr.Lt, 80), 0, 1, 2),
		}}},
		{"topn-over-breaker", plan.Limit{N: 5, Child: plan.Sort{
			Keys:  []plan.SortKey{{Pos: 2, Desc: true}},
			Child: grouped,
		}}},
		{"sort", plan.Sort{Keys: []plan.SortKey{{Pos: 0}}, Child: scanR(cmp(3, expr.Lt, 10), 0, 3)}},
		{"limit", plan.Limit{N: 40, Child: scanR(cmp(2, expr.Lt, 50), 0, 2)}},
		{"index-source", scanR(expr.And{Preds: []expr.Pred{cmp(4, expr.Eq, 7), cmp(1, expr.Lt, 60)}}, 0, 1, 4)},
		{"index-source-aggregate", plan.Aggregate{
			Child: plan.Select{Child: scanR(cmp(4, expr.Eq, 3), 0, 1), Pred: cmp(0, expr.Lt, 50)},
			Aggs:  []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
		}},
	}
}

// tracedOp is one operator of a jit trace, in the trace's plan pre-order:
// the subplan whose untraced result it accounts for, and the trace index
// of the operator feeding it rows (-1 for sources and join builds). A
// fused top-N stands for its Limit and is fed by the Sort's child; a hash
// join is its probe followed by its build, whose own operators run once
// at prepare time and are not traced.
type tracedOp struct {
	node  plan.Node
	child int
}

func traceOps(n plan.Node, ops []tracedOp) []tracedOp {
	i := len(ops)
	ops = append(ops, tracedOp{node: n, child: -1})
	var next plan.Node
	switch v := n.(type) {
	case plan.Limit:
		next = v.Child
		if srt, ok := v.Child.(plan.Sort); ok {
			next = srt.Child
		}
	case plan.Sort:
		next = v.Child
	case plan.Aggregate:
		next = v.Child
	case plan.Select:
		next = v.Child
	case plan.Project:
		next = v.Child
	case plan.HashJoin:
		ops = append(ops, tracedOp{node: v.Left, child: -1})
		next = v.Right
	}
	if next != nil {
		ops[i].child = len(ops)
		ops = traceOps(next, ops)
	}
	return ops
}

// pipeSource returns the base-table scan at the head of n's pipeline, or
// false when n is a pipeline breaker.
func pipeSource(n plan.Node) (plan.Scan, bool) {
	switch v := n.(type) {
	case plan.Scan:
		return v, true
	case plan.Select:
		return pipeSource(v.Child)
	case plan.Project:
		return pipeSource(v.Child)
	case plan.HashJoin:
		return pipeSource(v.Right)
	}
	return plan.Scan{}, false
}

// TestTraceOracle: traced and untraced executions return the same rows
// as the bulk engine, and every operator's rowsIn/rowsOut and per-worker
// lanes are those of the subplans it stands for.
func TestTraceOracle(t *testing.T) {
	pools := testPools(t, 1, 2, 4)
	for layout, c := range oracleCatalogs() {
		for _, pool := range pools {
			workers, opt := pool.Workers(), par.Options{Pool: pool, MorselRows: oracleMorsel}
			for _, pl := range oraclePlans() {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", layout, workers, pl.name), func(t *testing.T) {
					checkTrace(t, pl.node, c, opt)
				})
			}
		}
	}
}

func checkTrace(t *testing.T, n plan.Node, c *plan.Catalog, opt par.Options) {
	prep := PrepareOpt(n, c, opt)
	plain := prep.Exec()
	tr := prep.NewTrace()
	traced := prep.ExecTraced(tr)
	if !result.Equal(traced, plain) {
		t.Fatalf("ExecTraced returned %d rows, Exec %d, or they differ", traced.Len(), plain.Len())
	}
	if want := bulk.New().Run(n, c); !result.EqualUnordered(plain, want) {
		t.Fatalf("jit returned %d rows, bulk %d, or they differ", plain.Len(), want.Len())
	}

	ops := traceOps(n, nil)
	rep := tr.Report()
	if len(rep) != len(ops) {
		t.Fatalf("trace has %d operators, the plan %d: %+v", len(rep), len(ops), rep)
	}
	outs := make([]int64, len(ops))
	for i, op := range ops {
		outs[i] = int64(PrepareOpt(op.node, c, opt).Exec().Len())
	}
	for i, op := range ops {
		r := rep[i]
		if r.RowsOut != outs[i] {
			t.Errorf("op %d %s %s: rowsOut %d, its subplan returns %d rows", i, r.Op, r.Detail, r.RowsOut, outs[i])
		}
		switch {
		case op.child >= 0:
			if r.RowsIn != outs[op.child] {
				t.Errorf("op %d %s: rowsIn %d, its child returns %d rows", i, r.Op, r.RowsIn, outs[op.child])
			}
		case r.Op == "join-build":
			if r.RowsIn != outs[i] || !r.Static {
				t.Errorf("op %d join-build: rowsIn %d static %v, want %d rows measured at prepare", i, r.RowsIn, r.Static, outs[i])
			}
		default:
			scan := op.node.(plan.Scan)
			want := int64(c.Table(scan.Table).Rows())
			if acc, ok := exec.PlanIndexAccess(c, scan.Table, scan.Filter); ok {
				want = int64(len(c.Index(scan.Table, acc.Attr).Lookup(acc.Key, nil)))
			}
			if r.RowsIn != want {
				t.Errorf("op %d scan %s: rowsIn %d, want %d", i, r.Detail, r.RowsIn, want)
			}
		}
		checkLanes(t, i, r, op.node, c, opt)
	}
}

// checkLanes: an operator fused into a pipeline splits its rowsOut over
// per-worker lanes, one morsel per scheduled morsel (one for a serial or
// index-backed pipeline); a breaker, build or limit has no lanes.
func checkLanes(t *testing.T, i int, r obs.OpReport, n plan.Node, c *plan.Catalog, opt par.Options) {
	t.Helper()
	src, inPipe := pipeSource(n)
	if !inPipe || r.Op == "join-build" {
		if len(r.Workers) != 0 {
			t.Errorf("op %d %s: %d lanes on an operator outside a pipeline", i, r.Op, len(r.Workers))
		}
		return
	}
	wantMorsels := int64(1)
	if _, indexed := exec.PlanIndexAccess(c, src.Table, src.Filter); !indexed && opt.Parallel() {
		wantMorsels = int64(opt.Morsels(c.Table(src.Table).Rows()))
	}
	var rows, morsels int64
	for _, l := range r.Workers {
		if l.Worker < 0 || l.Worker >= opt.WorkerCount() {
			t.Errorf("op %d %s: lane for worker %d of %d", i, r.Op, l.Worker, opt.WorkerCount())
		}
		if l.Stolen > l.Morsels {
			t.Errorf("op %d %s: worker %d stole %d of %d morsels", i, r.Op, l.Worker, l.Stolen, l.Morsels)
		}
		rows += l.Rows
		morsels += l.Morsels
	}
	if rows != r.RowsOut || morsels != wantMorsels {
		t.Errorf("op %d %s: lanes sum to %d rows over %d morsels, want %d over %d", i, r.Op, rows, morsels, r.RowsOut, wantMorsels)
	}
}
