package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func newIntTable(db *core.DB, name string, vals ...int64) {
	b := storage.NewBuilder(storage.NewSchema(name,
		storage.Attribute{Name: "a", Type: storage.Int64},
		storage.Attribute{Name: "b", Type: storage.Int64},
	))
	other := make([]int64, len(vals))
	for i := range other {
		other[i] = vals[i] * 10
	}
	b.SetInts(0, vals).SetInts(1, other)
	db.AddTable(b.Build(storage.NSM(2)))
}

func row2(a, b int64) []storage.Word {
	return []storage.Word{storage.EncodeInt(a), storage.EncodeInt(b)}
}

func TestWALReplayAppliesRecords(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1, 2, 3)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	rows := [][]storage.Word{row2(4, 40), row2(5, 50)}
	for _, r := range rows {
		db.Catalog().Table("t").AppendRows(r)
	}
	if err := m.LogInsert("t", 2, rows); err != nil {
		t.Fatal(err)
	}
	tx := db.BeginWrite()
	tx.ApplyLayout("t", storage.DSM(2))
	tx.Commit()
	if err := m.LogRelayout("t", storage.DSM(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	got, m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	assertBitIdentical(t, "t", db, got)
}

// TestWALRejectsRecordType4: type byte 4 once logged an index creation.
// Nothing writes it any more, and replay refuses a log that holds one
// rather than skip it.
func TestWALRejectsRecordType4(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	m.Close()

	e := &enc{buf: []byte{4}}
	e.str("t")
	e.uvarint(0)
	e.str("hash")
	tail := appendFrame(nil, e.buf)
	tail = appendFrame(tail, walInsertBody("t", 2, row2(2, 20)))
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "unknown record type 4") {
		t.Fatalf("err = %v, want ErrWALCorrupt naming unknown record type 4", err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	if err := m.LogInsert("t", 2, [][]storage.Word{row2(2, 20)}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Simulate a crash mid-write: chop bytes off the last record.
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got, m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// The torn insert is gone; the create-table record survived.
	if rows := got.Catalog().Table("t").Rows(); rows != 1 {
		t.Fatalf("recovered %d rows, want 1 (torn insert dropped)", rows)
	}
	// The file was truncated back to the last good record.
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(data)-5) {
		t.Fatalf("torn tail not truncated: %d bytes", st.Size())
	}
}

func TestWALCorruptMiddleFails(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	if err := m.LogInsert("t", 2, [][]storage.Word{row2(2, 20)}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Flip a bit inside the FIRST record's body — damage, not a torn tail.
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 1
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}
}

func TestWALDictAppendReplay(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewBuilder(storage.NewSchema("s",
		storage.Attribute{Name: "name", Type: storage.String}))
	b.SetStrings(0, []string{"b", "a"})
	db.AddTable(b.Build(storage.NSM(1)))
	if err := m.LogCreateTable(db.Catalog(), "s"); err != nil {
		t.Fatal(err)
	}
	rel := db.Catalog().Table("s")
	c := rel.Dicts[0].AppendCode("zz")
	if err := m.LogDictAppend("s", 0, []string{"zz"}); err != nil {
		t.Fatal(err)
	}
	rel.AppendRows([]storage.Word{c})
	if err := m.LogInsert("s", 1, [][]storage.Word{{c}}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	got, m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	grel := got.Catalog().Table("s")
	if v := grel.StringOf(2, 0); v != "zz" {
		t.Fatalf("recovered appended dict value = %q, want zz", v)
	}
	if grel.Dicts[0].SortedLen() != 2 || grel.Dicts[0].Len() != 3 {
		t.Fatalf("recovered dict sorted=%d len=%d, want 2 and 3", grel.Dicts[0].SortedLen(), grel.Dicts[0].Len())
	}
}

// TestStaleWALDiscardedAfterCheckpointCrash covers the crash window
// between the snapshot rename and the WAL rotation: the snapshot already
// contains the WAL's effects, so recovery must discard the lower-epoch
// WAL instead of replaying its records twice.
func TestStaleWALDiscardedAfterCheckpointCrash(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1, 2)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	rows := [][]storage.Word{row2(3, 30)}
	db.Catalog().Table("t").AppendRows(rows[0])
	if err := m.LogInsert("t", 2, rows); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: snapshot renamed, WAL rotation never ran. Save the
	// pre-checkpoint WAL, checkpoint, then put the stale WAL back.
	walPath := filepath.Join(dir, walFile)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	got, m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rowCount := got.Catalog().Table("t").Rows(); rowCount != 3 {
		t.Fatalf("recovered %d rows, want 3 (stale WAL must not replay)", rowCount)
	}
	assertBitIdentical(t, "t", db, got)
	if m2.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", m2.Epoch())
	}
}

func TestOpenFreshDiscardsState(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1, 2)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	m.Close()

	got, m2, err := Open(Options{Dir: dir, Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := len(got.Catalog().Names()); n != 0 {
		t.Fatalf("fresh open recovered %d tables, want 0", n)
	}
}

func TestCheckpointResetsWAL(t *testing.T) {
	dir := t.TempDir()
	db, m, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	newIntTable(db, "t", 1, 2)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	if m.WALSize() == 0 {
		t.Fatal("WAL empty after logging")
	}
	info, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotBytes <= 0 || info.WALBytes <= 0 {
		t.Fatalf("checkpoint info %+v", info)
	}
	if sz := m.WALSize(); sz != 0 {
		t.Fatalf("WAL size %d after checkpoint, want 0 (epoch stamps with the next commit)", sz)
	}
	// Post-checkpoint mutations land in the (fresh) WAL and recover on
	// top of the snapshot.
	rows := [][]storage.Word{row2(3, 30)}
	db.Catalog().Table("t").AppendRows(rows[0])
	if err := m.LogInsert("t", 2, rows); err != nil {
		t.Fatal(err)
	}
	m.Close()

	got, m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	assertBitIdentical(t, "t", db, got)
}
