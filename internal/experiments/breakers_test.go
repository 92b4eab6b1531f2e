package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/vector"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// breakerWorkerCounts is the worker sweep of the pipeline-breaker
// differential suites.
var breakerWorkerCounts = []int{1, 2, 4, 8}

// assertOrderedMatchesSerial compares the parallel jit engine's output to
// the serial engine's row-for-row — Equal, not Sorted — because the
// parallel sort, top-N and partitioned join-build all promise
// bit-identical row order, tie resolution included. The serial vector
// engine's rows must be the same too.
func assertOrderedMatchesSerial(t *testing.T, label string, p plan.Node, cat *plan.Catalog) {
	t.Helper()
	want := jit.New().Run(p, cat)
	if got := vector.New().Run(p, cat); !result.Equal(want, got) {
		t.Fatalf("%s: vector diverges from jit in ordered compare (jit %d rows, vector %d rows)", label, want.Len(), got.Len())
	}
	for _, workers := range breakerWorkerCounts {
		if got := parallelJIT(workers).Run(p, cat); !result.Equal(want, got) {
			t.Fatalf("%s: jit with %d workers diverges from serial in ordered compare (serial %d rows, parallel %d rows)",
				label, workers, want.Len(), got.Len())
		}
	}
}

// sortPlan orders the duplicate-heavy Figure 3 attributes (B..E are
// uniform over 1000 values, so every key repeats ~rows/1000 times): a
// stability stress for the parallel merge.
func sortPlan(desc bool) plan.Node {
	return plan.Sort{
		Child: plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(800_000)},
			Cols:   []int{1, 2, 0},
		},
		Keys: []plan.SortKey{{Pos: 0, Desc: desc}, {Pos: 1}},
	}
}

// TestParallelSortMatchesSerial: the parallel merge sort must be
// bit-identical to the serial sort.SliceStable on every layout.
func TestParallelSortMatchesSerial(t *testing.T) {
	setup := NewFig3Setup(60_000)
	for _, layoutName := range []string{"row", "column", "hybrid"} {
		cat := setup.Catalogs[layoutName]
		for _, desc := range []bool{false, true} {
			assertOrderedMatchesSerial(t, fmt.Sprintf("sort %s desc=%v", layoutName, desc), sortPlan(desc), cat)
		}
	}
}

// TestTopNMatchesSerial: the fused Sort+Limit operator must reproduce
// stable-sort-then-truncate exactly — including ties at the k boundary,
// which the duplicate-heavy keys guarantee exist — for k from 1 to
// beyond the input size, pipelined and breaker children both.
func TestTopNMatchesSerial(t *testing.T) {
	setup := NewFig3Setup(60_000)
	for _, layoutName := range []string{"row", "column", "hybrid"} {
		cat := setup.Catalogs[layoutName]
		for _, k := range []int{0, 1, 10, 1000, 1 << 20} {
			p := plan.Limit{N: k, Child: sortPlan(true).(plan.Sort)}
			assertOrderedMatchesSerial(t, fmt.Sprintf("topn %s k=%d", layoutName, k), p, cat)
		}
	}
	// Sort child is itself a breaker (grouped aggregate), the SAP-SD Q10
	// shape: top groups by descending count.
	agg := plan.Aggregate{
		Child:   plan.Scan{Table: "R", Cols: []int{1, 2}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "n"}, {Kind: expr.Sum, Arg: expr.IntCol(1), Name: "s"}},
	}
	p := plan.Limit{N: 25, Child: plan.Sort{Child: agg, Keys: []plan.SortKey{{Pos: 1, Desc: true}}}}
	assertOrderedMatchesSerial(t, "topn-over-aggregate", p, setup.Catalogs["column"])
}

// TestPartitionedJoinMatchesSerial: the radix-partitioned build must
// preserve per-key match order, which the ordered compare of a
// multi-match join (60 build rows per key) observes directly. The 60K-row
// build side exceeds the partitioning threshold, so parallel runs
// exercise the histogram+scatter path, not the serial fallback.
func TestPartitionedJoinMatchesSerial(t *testing.T) {
	setup := NewFig3Setup(60_000)
	join := plan.HashJoin{
		Left: plan.Scan{Table: "R", Cols: []int{1, 0}},
		Right: plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(30_000)},
			Cols:   []int{1, 2},
		},
		LeftKey:  0,
		RightKey: 0,
	}
	for _, layoutName := range []string{"row", "column", "hybrid"} {
		assertOrderedMatchesSerial(t, "join "+layoutName, join, setup.Catalogs[layoutName])
	}
}

// TestTopNAllocationBounded is the Sort-under-Limit regression test: an
// ORDER BY … LIMIT k execution must allocate O(k), not O(n) — before the
// fused operator, both jit and vector materialized and fully sorted all n
// rows before Limit dropped them. 400K emitted rows would cost ≳19 MB to
// materialize (24 data bytes + slice header per row); the fused top-N must
// stay under 4 MB per run. The vector engine is measured serial: its
// parallel scan materializes scan output by design (pre-existing,
// arena-backed), which is the scan's cost, not the sort's.
func TestTopNAllocationBounded(t *testing.T) {
	const rows, k = 400_000, 16
	schema := storage.NewSchema("t",
		storage.Attribute{Name: "a", Type: storage.Int64},
		storage.Attribute{Name: "b", Type: storage.Int64},
		storage.Attribute{Name: "c", Type: storage.Int64},
	)
	b := storage.NewBuilder(schema)
	a0 := make([]int64, rows)
	a1 := make([]int64, rows)
	a2 := make([]int64, rows)
	for i := range a0 {
		a0[i] = int64(i % 1000) // duplicate-heavy sort key
		a1[i] = int64((i * 7919) % rows)
		a2[i] = int64(i)
	}
	b.SetInts(0, a0).SetInts(1, a1).SetInts(2, a2)
	cat := plan.NewCatalog().Add(b.Build(storage.DSM(3)))
	topn := plan.Limit{N: k, Child: plan.Sort{
		Child: plan.Scan{Table: "t", Cols: []int{0, 1, 2}},
		Keys:  []plan.SortKey{{Pos: 0}, {Pos: 1, Desc: true}},
	}}

	want := jit.New().Run(topn.Child, cat) // full sort as the row oracle
	want.Rows = want.Rows[:k]

	engines := []exec.Engine{
		jit.New(),
		vector.New(),
		jit.NewParallel(par.Options{Pool: testPool(4), MorselRows: 16 * 1024}),
	}
	for _, e := range engines {
		name := e.Name()
		e.Run(topn, cat) // warm up: compile paths, lazy setup
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := e.Run(topn, cat)
		runtime.ReadMemStats(&after)
		if !result.Equal(want, got) {
			t.Fatalf("%s: fused top-N rows differ from sort+truncate", name)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 4<<20 {
			t.Errorf("%s: top-N run allocated %d bytes, want O(k) (< 4 MB for k=%d over %d rows)",
				name, allocated, k, rows)
		}
	}
}
