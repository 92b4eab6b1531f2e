package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// countAll sums and counts the "value" column against an explicit
// catalog — the snapshot-scoped analogue of db.Query.
func countAll(t *testing.T, cat *plan.Catalog) (cnt, sum int64) {
	t.Helper()
	res := jit.New().Run(plan.Aggregate{
		Child: plan.Scan{Table: "events", Cols: []int{2}},
		Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "n"},
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "total"},
		},
	}, cat)
	return storage.DecodeInt(res.Rows[0][0]), storage.DecodeInt(res.Rows[0][1])
}

// TestSnapshotIsolation pins a snapshot, publishes a write transaction,
// and asserts the pinned view is bit-stable while the published catalog
// moved on.
func TestSnapshotIsolation(t *testing.T) {
	db, _ := buildDB(500)
	snap := db.Snapshot()
	defer snap.Release()
	cnt0, sum0 := countAll(t, snap.Catalog())
	if cnt0 != 500 {
		t.Fatalf("snapshot sees %d rows, want 500", cnt0)
	}
	epoch0 := snap.Epoch()

	tx := db.BeginWrite()
	tx.Insert("events", [][]storage.Word{{
		storage.EncodeInt(500), tx.Catalog().Table("events").Dicts[1].AppendCode("buy"),
		storage.EncodeInt(7), storage.EncodeInt(0), storage.EncodeInt(0),
	}})
	if c, _ := countAll(t, snap.Catalog()); c != 500 {
		t.Fatalf("uncommitted write visible to snapshot: %d rows", c)
	}
	if tx.Commit() != epoch0+1 {
		t.Fatal("commit did not advance the epoch by one")
	}

	// The pinned snapshot still answers from its version ...
	if c, s := countAll(t, snap.Catalog()); c != cnt0 || s != sum0 {
		t.Fatalf("pinned snapshot drifted after commit: count %d->%d sum %d->%d", cnt0, c, sum0, s)
	}
	if snap.Epoch() != epoch0 {
		t.Fatalf("pinned snapshot epoch changed: %d -> %d", epoch0, snap.Epoch())
	}
	// ... while the published catalog has the new row.
	if c, s := countAll(t, db.Catalog()); c != 501 || s != sum0+7 {
		t.Fatalf("published catalog: count %d sum %d, want %d/%d", c, s, 501, sum0+7)
	}
	if db.Epoch() != epoch0+1 {
		t.Fatalf("published epoch %d, want %d", db.Epoch(), epoch0+1)
	}
}

// TestOneShotMutatorsIsolated pins a snapshot before each of core.DB's
// one-shot mutators and asserts what the Snapshot type promises: the
// pinned catalog does not change, the call publishes exactly one version,
// and the superseded one is reclaimed when the pin drops.
func TestOneShotMutatorsIsolated(t *testing.T) {
	db, schema := buildDB(3000)
	db.AddWorkload("buys", buyQuery(db, schema), 100)
	other := storage.NewRelation(storage.NewSchema("other",
		storage.Attribute{Name: "k", Type: storage.Int64}), storage.NSM(1))

	for _, tc := range []struct {
		name    string
		mutate  func()
		changed func(c *plan.Catalog) bool // true once the mutation is visible in c
	}{
		{"CreateHashIndex", func() { db.CreateHashIndex("events", 0) },
			func(c *plan.Catalog) bool { return c.Index("events", 0) != nil }},
		{"OptimizeLayouts", func() { db.OptimizeLayouts() },
			func(c *plan.Catalog) bool { return c.Table("events").Layout.Kind() != "row" }},
		{"Query(Insert)", func() {
			db.Query(plan.Insert{Table: "events", Rows: [][]storage.Word{{
				storage.EncodeInt(3000), db.Table("events").Dict(1).MustCode("buy"),
				storage.EncodeInt(7), storage.EncodeInt(0), storage.EncodeInt(0),
			}}})
		}, func(c *plan.Catalog) bool { return c.Table("events").Rows() != 3000 }},
		{"AddTable", func() { db.AddTable(other) },
			func(c *plan.Catalog) bool { return c.Has("other") }},
	} {
		snap := db.Snapshot()
		rel, epoch := snap.Catalog().Table("events"), db.Epoch()
		if tc.changed(snap.Catalog()) {
			t.Fatalf("%s: already visible before the call", tc.name)
		}
		tc.mutate()
		if tc.changed(snap.Catalog()) {
			t.Errorf("%s changed the catalog of a pinned snapshot", tc.name)
		}
		if snap.Catalog().Table("events") != rel {
			t.Errorf("%s replaced the relation inside a pinned snapshot", tc.name)
		}
		if !tc.changed(db.Catalog()) {
			t.Errorf("%s is not visible in the published catalog", tc.name)
		}
		if got := db.Epoch(); got != epoch+1 {
			t.Errorf("%s moved the epoch %d -> %d, want one version", tc.name, epoch, got)
		}
		snap.Release()
		if lv := db.LiveVersions(); lv != 1 {
			t.Errorf("%s: %d live versions after release, want 1", tc.name, lv)
		}
	}
}

// TestAbandonedWriteTxn asserts a transaction that never commits leaves
// no trace in the published catalog.
func TestAbandonedWriteTxn(t *testing.T) {
	db, _ := buildDB(100)
	epoch0 := db.Epoch()
	tx := db.BeginWrite()
	tx.Insert("events", [][]storage.Word{{
		storage.EncodeInt(100), tx.Catalog().Table("events").Dicts[1].AppendCode("view"),
		storage.EncodeInt(1), storage.EncodeInt(0), storage.EncodeInt(0),
	}})
	tx = nil // abandoned: no Commit
	if c, _ := countAll(t, db.Catalog()); c != 100 {
		t.Fatalf("abandoned transaction leaked into published catalog: %d rows", c)
	}
	if db.Epoch() != epoch0 {
		t.Fatalf("abandoned transaction advanced the epoch %d -> %d", epoch0, db.Epoch())
	}
}

// TestSnapshotStableAcrossRelayout pins a snapshot, re-lays-out the
// table through a write transaction, and asserts the pinned results are
// row-identical before and after the publish — the relation the snapshot
// references was cloned, not mutated.
func TestSnapshotStableAcrossRelayout(t *testing.T) {
	db, schema := buildDB(2000)
	q := buyQuery(db, schema)
	snap := db.Snapshot()
	defer snap.Release()
	before := jit.New().Run(q, snap.Catalog())

	tx := db.BeginWrite()
	tx.ApplyLayout("events", storage.DSM(schema.Width()))
	tx.Commit()

	after := jit.New().Run(q, snap.Catalog())
	if !result.Equal(before, after) {
		t.Fatal("pinned snapshot result changed across a committed relayout")
	}
	// The published catalog answers identically under the new layout.
	pub := jit.New().Run(q, db.Catalog())
	if !result.Equal(before, pub) {
		t.Fatal("relayout changed query results")
	}
}

// TestVersionReclamation drives commits with and without pinned readers
// and asserts superseded versions are reclaimed exactly when their last
// pin drops — the live-version count stays bounded.
func TestVersionReclamation(t *testing.T) {
	db, _ := buildDB(50)
	reclaimed0 := db.VersionsReclaimed()
	row := func(tx *WriteTxn, id int64) [][]storage.Word {
		return [][]storage.Word{{
			storage.EncodeInt(id), tx.Catalog().Table("events").Dicts[1].AppendCode("click"),
			storage.EncodeInt(1), storage.EncodeInt(0), storage.EncodeInt(0),
		}}
	}

	// No readers: every commit reclaims its predecessor immediately.
	for i := 0; i < 5; i++ {
		tx := db.BeginWrite()
		tx.Insert("events", row(tx, int64(100+i)))
		tx.Commit()
		if lv := db.LiveVersions(); lv != 1 {
			t.Fatalf("commit %d with no readers: %d live versions, want 1", i, lv)
		}
	}
	if got := db.VersionsReclaimed() - reclaimed0; got != 5 {
		t.Fatalf("reclaimed %d versions, want 5", got)
	}

	// A pinned reader holds exactly its own version alive across commits.
	snap := db.Snapshot()
	for i := 0; i < 3; i++ {
		tx := db.BeginWrite()
		tx.Insert("events", row(tx, int64(200+i)))
		tx.Commit()
	}
	if lv := db.LiveVersions(); lv != 2 {
		t.Fatalf("one pinned reader across 3 commits: %d live versions, want 2 (published + pinned)", lv)
	}
	if got := db.ActiveSnapshots(); got != 1 {
		t.Fatalf("ActiveSnapshots = %d, want 1", got)
	}
	snap.Release()
	if lv := db.LiveVersions(); lv != 1 {
		t.Fatalf("after release: %d live versions, want 1", lv)
	}
	if got := db.ActiveSnapshots(); got != 0 {
		t.Fatalf("ActiveSnapshots after release = %d, want 0", got)
	}
	snap.Release() // idempotent
	if got := db.ActiveSnapshots(); got != 0 {
		t.Fatalf("double release corrupted the pin count: %d", got)
	}
}

// TestSnapshotRaceWithCommits hammers Snapshot/Release against a
// committing writer under -race: every pinned view must satisfy the
// prefix invariant (values 0..cnt-1 inserted in order, so sum ==
// cnt*(cnt-1)/2), and all retired versions must drain once readers stop.
func TestSnapshotRaceWithCommits(t *testing.T) {
	db := Open()
	b := storage.NewBuilder(storage.NewSchema("events",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "pad", Type: storage.Int64},
		storage.Attribute{Name: "value", Type: storage.Int64},
	))
	b.SetInts(0, nil).SetInts(1, nil).SetInts(2, nil)
	db.CreateTable(b)

	const commits = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			tx := db.BeginWrite()
			tx.Insert("events", [][]storage.Word{{
				storage.EncodeInt(int64(i)), storage.EncodeInt(0), storage.EncodeInt(int64(i)),
			}})
			tx.Commit()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				snap := db.Snapshot()
				cnt, sum := countAll(t, snap.Catalog())
				if want := cnt * (cnt - 1) / 2; sum != want {
					t.Errorf("torn snapshot: %d rows sum %d, want %d", cnt, sum, want)
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
	if c, _ := countAll(t, db.Catalog()); c != commits {
		t.Fatalf("final count %d, want %d", c, commits)
	}
	if lv := db.LiveVersions(); lv != 1 {
		t.Fatalf("readers drained but %d versions live, want 1", lv)
	}
}

// TestSnapshotStableAcrossAppendRows commits two batches through
// AppendRows while snapshots stay pinned. The first batch reallocates
// every partition (the table was built without spare capacity) and
// leaves room the second fills in place, beyond the length the snapshot
// pinned between them bounds. Each snapshot keeps reading its own rows.
func TestSnapshotStableAcrossAppendRows(t *testing.T) {
	db, _ := buildDB(500)
	batch := func(from, n int) []storage.Word {
		words := make([]storage.Word, 0, 5*n)
		for i := from; i < from+n; i++ {
			words = append(words, storage.EncodeInt(int64(i)), storage.Null,
				storage.EncodeInt(int64(i)), storage.EncodeInt(0), storage.EncodeInt(0))
		}
		return words
	}
	var snaps []*Snapshot
	var counts, sums []int64
	for _, b := range [][2]int{{500, 300}, {800, 10}} {
		snap := db.Snapshot()
		defer snap.Release()
		c, s := countAll(t, snap.Catalog())
		snaps, counts, sums = append(snaps, snap), append(counts, c), append(sums, s)

		tx := db.BeginWrite()
		tx.AppendRows("events", batch(b[0], b[1]))
		tx.Commit()
		for i, snap := range snaps {
			if c, s := countAll(t, snap.Catalog()); c != counts[i] || s != sums[i] {
				t.Fatalf("snapshot %d drifted after appending rows %d..: count %d->%d sum %d->%d",
					i, b[0], counts[i], c, sums[i], s)
			}
		}
	}
	if counts[0] != 500 || counts[1] != 800 {
		t.Fatalf("snapshots pinned %v rows, want [500 800]", counts)
	}
	if c, _ := countAll(t, db.Catalog()); c != 810 {
		t.Fatalf("latest version holds %d rows, want 810", c)
	}
	if p := db.Table("events").Parts[0]; cap(p.Data) == len(p.Data) {
		t.Fatal("the second batch did not land in spare capacity; the test lost its point")
	}
}

// indexedDB is buildDB's table on two morsel workers with a hash index
// on id (attr 0) and a red-black tree on value (attr 2), and a workload
// that moves the table off NSM.
func indexedDB(t *testing.T, rows int) (*DB, *storage.Schema) {
	t.Helper()
	db, schema := buildDB(rows)
	pool := par.NewPool(2)
	t.Cleanup(pool.Close)
	db.SetParOptions(par.Options{Pool: pool, MorselRows: 1000})
	db.CreateHashIndex("events", 0)
	tx := db.BeginWrite()
	if err := tx.CreateIndex("events", 2, index.KindRBTree); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	db.AddWorkload("buys", buyQuery(db, schema), 100)
	return db, schema
}

// lookups returns every index of events looked up at every key of its
// attribute, plus one absent key.
func lookups(cat *plan.Catalog) map[int]map[storage.Word][]int32 {
	rel := cat.Table("events")
	out := map[int]map[storage.Word][]int32{}
	for _, def := range cat.IndexDefs("events") {
		idx, m := cat.Index("events", def.Attr), map[storage.Word][]int32{}
		for row := 0; row < rel.Rows(); row++ {
			k := rel.Value(row, def.Attr)
			m[k] = idx.Lookup(k, nil)
		}
		m[storage.EncodeInt(-1)] = idx.Lookup(storage.EncodeInt(-1), nil)
		out[def.Attr] = m
	}
	return out
}

// checkIndexesMatchScan asserts that each index of events returns, for
// every key, exactly the rows a full scan finds, in ascending order.
func checkIndexesMatchScan(t *testing.T, cat *plan.Catalog) {
	t.Helper()
	rel := cat.Table("events")
	for _, def := range cat.IndexDefs("events") {
		want := map[storage.Word][]int32{}
		for row := 0; row < rel.Rows(); row++ {
			k := rel.Value(row, def.Attr)
			want[k] = append(want[k], int32(row))
		}
		idx := cat.Index("events", def.Attr)
		if idx.Len() != rel.Rows() {
			t.Fatalf("%s index on %d holds %d entries for %d rows", def.Kind, def.Attr, idx.Len(), rel.Rows())
		}
		for k, rows := range want {
			if got := idx.Lookup(k, nil); !slices.Equal(got, rows) {
				t.Fatalf("%s index on %d: Lookup(%d) = %v, a scan finds %v", def.Kind, def.Attr, k, got, rows)
			}
		}
	}
}

// TestRelayoutKeepsIndexes: OptimizeLayouts re-lays-out an indexed table
// without rebuilding its indexes — the published catalog holds the very
// same index structures — and a snapshot pinned before it keeps its
// lookup results.
func TestRelayoutKeepsIndexes(t *testing.T) {
	db, _ := indexedDB(t, 30_000)
	hash, tree := db.Catalog().Index("events", 0), db.Catalog().Index("events", 2)
	snap := db.Snapshot()
	defer snap.Release()
	before := lookups(snap.Catalog())

	if changes := db.OptimizeLayouts(); len(changes) != 1 {
		t.Fatalf("OptimizeLayouts made %d changes, want 1", len(changes))
	}
	if db.Table("events") == snap.Catalog().Table("events") {
		t.Fatal("the relation was not re-laid-out")
	}
	if db.Catalog().Index("events", 0) != hash || db.Catalog().Index("events", 2) != tree {
		t.Fatal("a relayout rebuilt the table's indexes instead of keeping them")
	}
	if !reflect.DeepEqual(lookups(snap.Catalog()), before) {
		t.Fatal("a pinned snapshot's index lookups changed across a relayout")
	}
	checkIndexesMatchScan(t, db.Catalog())
}

// TestRelayoutThenInsertClonesIndexes: inserting after ApplyLayout in
// the same transaction writes into private copies of the indexes; the
// base version's indexes, which pinned readers probe, stay untouched.
func TestRelayoutThenInsertClonesIndexes(t *testing.T) {
	db, schema := indexedDB(t, 5_000)
	base := db.Catalog()
	hash, lens := base.Index("events", 0), base.Index("events", 2).Len()
	newID := storage.EncodeInt(5_000)

	tx := db.BeginWrite()
	tx.ApplyLayout("events", storage.DSM(schema.Width()))
	if tx.Catalog().Index("events", 0) != hash {
		t.Fatal("ApplyLayout replaced the index")
	}
	tx.Insert("events", [][]storage.Word{{
		newID, tx.Catalog().Table("events").Dicts[1].AppendCode("buy"),
		storage.EncodeInt(7), storage.EncodeInt(0), storage.EncodeInt(0),
	}})
	if got := hash.Lookup(newID, nil); len(got) != 0 || hash.Len() != 5_000 || base.Index("events", 2).Len() != lens {
		t.Fatalf("an insert after a relayout wrote into the base version's indexes (lookup %v)", got)
	}
	if got := tx.Catalog().Index("events", 0).Lookup(newID, nil); !slices.Equal(got, []int32{5_000}) {
		t.Fatalf("the new version's index finds %v for the new row, want [5000]", got)
	}
	tx.Commit()
	checkIndexesMatchScan(t, db.Catalog())
}

// TestIndexesMatchScanAfterRelayoutAndInserts interleaves relayouts and
// inserts in and across transactions; every index then agrees with a
// full scan of its table.
func TestIndexesMatchScanAfterRelayoutAndInserts(t *testing.T) {
	db, schema := indexedDB(t, 20_000)
	buy := db.Table("events").Dict(1).MustCode("buy")
	next := int64(20_000)
	insert := func(tx *WriteTxn, n int) {
		rows := make([][]storage.Word, n)
		for i := range rows {
			rows[i] = []storage.Word{storage.EncodeInt(next), buy, storage.EncodeInt(next % 100), 0, 0}
			next++
		}
		tx.Insert("events", rows)
	}
	for _, l := range []storage.Layout{storage.DSM(schema.Width()), storage.PDSM([]int{0, 3}, []int{1, 2, 4}), storage.NSM(schema.Width())} {
		tx := db.BeginWrite()
		insert(tx, 300)
		tx.ApplyLayout("events", l)
		insert(tx, 200)
		tx.Commit()
		tx = db.BeginWrite()
		tx.ApplyLayout("events", storage.DSM(schema.Width()))
		insert(tx, 100)
		tx.Commit()
	}
	db.OptimizeLayouts()
	checkIndexesMatchScan(t, db.Catalog())
}
