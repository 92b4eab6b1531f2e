package persist

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// suiteQueries is the cross-engine differential suite run against the
// original and the recovered database: scans with filters, string
// predicates over dictionary codes, grouped aggregation, joins and sorts.
func suiteQueries(db *core.DB) map[string]plan.Node {
	rel := db.Catalog().Table("t")
	dict := rel.Dicts[4]
	beta, _ := dict.Code("beta")
	return map[string]plan.Node{
		"full-scan": plan.Scan{Table: "t", Cols: []int{0, 1, 2, 3, 4, 5}},
		"filter": plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 2, Op: expr.Lt, Val: storage.EncodeInt(100)},
			Cols:   []int{0, 2},
		},
		"string-eq": plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 4, Op: expr.Eq, Val: beta},
			Cols:   []int{0, 4},
		},
		"indexed-point": plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(42)},
			Cols:   []int{0, 1, 4},
		},
		"group-agg": plan.Aggregate{
			Child:   plan.Scan{Table: "t", Cols: []int{1, 2, 3}},
			GroupBy: []int{0},
			Aggs: []expr.AggSpec{
				{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_val"},
				{Kind: expr.Avg, Arg: expr.Col{Attr: 2, Ty: storage.Float64}, Name: "avg_price"},
				{Kind: expr.Count, Name: "n"},
			},
		},
		"join": plan.HashJoin{
			Left:     plan.Scan{Table: "t", Cols: []int{1, 0}},
			Right:    plan.Scan{Table: "events", Cols: []int{0, 1}},
			LeftKey:  1,
			RightKey: 0,
		},
		"sort-limit": plan.Limit{
			Child: plan.Sort{
				Child: plan.Scan{Table: "t", Cols: []int{2, 0}},
				Keys:  []plan.SortKey{{Pos: 0, Desc: true}, {Pos: 1}},
			},
			N: 25,
		},
	}
}

// TestRecoveryDifferential is the acceptance test of the durability
// layer: build → optimize layouts → checkpoint → more inserts (WAL tail)
// → reopen in a fresh DB → every suite query is row-identical on every
// engine, and the physical design round-tripped bit-identically.
func TestRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()
	db := buildTestDB(t, 400)

	// Declare a workload and let the optimizer choose layouts, so the
	// snapshot contains optimizer-chosen (not just hand-picked) designs.
	db.AddWorkload("narrow", plan.Aggregate{
		Child: plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(50)},
			Cols:   []int{1, 2},
		},
		Aggs: []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "s"}},
	}, 0.9)
	db.AddWorkload("wide", plan.Scan{Table: "t", Cols: []int{0, 1, 2, 3, 4, 5}}, 0.1)
	db.OptimizeLayouts()

	_, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}

	// Mutations after the checkpoint live only in the WAL: new dict value,
	// inserts into both tables.
	trel := db.Catalog().Table("t")
	code := trel.Dicts[4].AppendCode("post-snapshot")
	if err := m.LogDictAppend("t", 4, []string{"post-snapshot"}); err != nil {
		t.Fatal(err)
	}
	newRows := [][]storage.Word{
		{storage.EncodeInt(9001), storage.EncodeInt(2), storage.EncodeInt(-7),
			storage.EncodeFloat(3.25), code, storage.EncodeBool(false)},
		{storage.EncodeInt(9002), storage.EncodeInt(3), storage.EncodeInt(77),
			storage.EncodeFloat(0.5), storage.Null, storage.EncodeBool(true)},
	}
	exec.RunInsert(plan.Insert{Table: "t", Rows: newRows}, db.Catalog())
	if err := m.LogInsert("t", 6, newRows); err != nil {
		t.Fatal(err)
	}
	evRows := [][]storage.Word{{storage.EncodeInt(12345), storage.Word(0)}}
	exec.RunInsert(plan.Insert{Table: "events", Rows: evRows}, db.Catalog())
	if err := m.LogInsert("events", 2, evRows); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	// Snapshot and WAL tail arrive as one published version.
	if got, want := recovered.Epoch(), core.Open().Epoch()+1; got != want {
		t.Fatalf("recovery left the database at epoch %d, want %d (one commit)", got, want)
	}
	if lv := recovered.LiveVersions(); lv != 1 {
		t.Fatalf("recovery left %d live versions, want 1", lv)
	}
	for _, table := range db.Catalog().Names() {
		assertBitIdentical(t, table, db, recovered)
	}

	engines := []string{"jit", "volcano", "bulk", "hyrise", "vector"}
	for name, q := range suiteQueries(db) {
		for _, eng := range engines {
			want, err := db.QueryWith(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recovered.QueryWith(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			if !result.Equal(want, got) {
				t.Fatalf("query %s on engine %s: recovered result differs (%d vs %d rows)",
					name, eng, want.Len(), got.Len())
			}
		}
	}
}

// TestRecoveryFailsWholeOnBadMiddleRecord recovers a snapshot plus a WAL
// tail whose middle record passes its CRC but cannot be applied (it names
// a table that does not exist). The records before it were already
// replayed when the error surfaces; Open must hand back no database
// rather than one holding half the log.
func TestRecoveryFailsWholeOnBadMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	db := buildTestDB(t, 50)
	_, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	ev := [][]storage.Word{{storage.EncodeInt(1), storage.Word(0)}}
	for _, table := range []string{"events", "ghost", "events"} {
		if err := m.LogInsert(table, 2, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, m2, err := Open(Options{Dir: dir})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}
	if recovered != nil || m2 != nil {
		t.Fatalf("failed recovery returned a database (%v) or a manager (%v)", recovered, m2)
	}
}
