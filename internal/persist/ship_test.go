package persist

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// shipDB opens a manager over a fresh directory with one empty two-column
// table, logged so replay (and shipping) recreates it.
func shipDB(t *testing.T) (*core.DB, *Manager) {
	t.Helper()
	db, m, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	rel := storage.NewRelation(storage.NewSchema("t",
		storage.Attribute{Name: "a", Type: storage.Int64},
		storage.Attribute{Name: "b", Type: storage.Int64},
	), storage.NSM(2))
	db.AddTable(rel)
	if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
		t.Fatal(err)
	}
	return db, m
}

func insertLogged(t *testing.T, db *core.DB, m *Manager, rows ...[]storage.Word) {
	t.Helper()
	exec.RunInsert(plan.Insert{Table: "t", Rows: rows}, db.Catalog())
	if err := m.LogInsert("t", 2, rows); err != nil {
		t.Fatal(err)
	}
}

// countFrames walks data and returns total and mutation (non-epoch)
// frame counts.
func countFrames(t *testing.T, data []byte) (total, mutations int) {
	t.Helper()
	for off := 0; off < len(data); {
		body, n, err := ParseFrame(data[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		if n == 0 {
			t.Fatalf("partial frame at %d", off)
		}
		total++
		if _, isEpoch := EpochRecord(body); !isEpoch {
			mutations++
		}
		off += n
	}
	return total, mutations
}

func TestTailReadWindowsAndRotation(t *testing.T) {
	db, m := shipDB(t)
	insertLogged(t, db, m, row2(1, 10), row2(2, 20))
	insertLogged(t, db, m, row2(3, 30))

	full, err := m.TailRead(m.Epoch(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full.Data)) != full.Committed || full.Committed != m.WALSize() {
		t.Fatalf("tail covers %d bytes, committed %d, wal %d", len(full.Data), full.Committed, m.WALSize())
	}
	if total, muts := countFrames(t, full.Data); total != 4 || muts != 3 {
		// epoch marker + create-table + 2 inserts
		t.Fatalf("frames = %d (%d mutations), want 4 (3)", total, muts)
	}
	if full.Records != 3 {
		t.Fatalf("Records = %d, want 3", full.Records)
	}

	// A tiny max still returns at least one whole frame, never a torn one.
	var rebuilt []byte
	for off := int64(0); off < full.Committed; {
		part, err := m.TailRead(m.Epoch(), off, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(part.Data) == 0 {
			t.Fatalf("empty chunk at offset %d before committed end %d", off, full.Committed)
		}
		countFrames(t, part.Data) // fails on any partial frame
		rebuilt = append(rebuilt, part.Data...)
		off += int64(len(part.Data))
	}
	if !bytes.Equal(rebuilt, full.Data) {
		t.Fatal("chunked tail differs from whole tail")
	}

	// Mid-stream offsets resume exactly.
	_, n, err := ParseFrame(full.Data)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := m.TailRead(m.Epoch(), int64(n), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest.Data, full.Data[n:]) {
		t.Fatal("offset tail differs from suffix")
	}

	// Caught-up tail is empty, not an error.
	tip, err := m.TailRead(m.Epoch(), full.Committed, 1<<20)
	if err != nil || len(tip.Data) != 0 {
		t.Fatalf("tip tail: %d bytes, err %v", len(tip.Data), err)
	}

	// Rotation: the old epoch (and any offset into it) is gone.
	oldEpoch := m.Epoch()
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TailRead(oldEpoch, 0, 1<<20); !errors.Is(err, ErrEpochGone) {
		t.Fatalf("stale epoch tail: err = %v, want ErrEpochGone", err)
	}
	// An offset beyond the new (empty) log is gone too — the follower
	// must resync, not wait.
	if _, err := m.TailRead(m.Epoch(), full.Committed, 1<<20); !errors.Is(err, ErrEpochGone) {
		t.Fatalf("overrun offset: err = %v, want ErrEpochGone", err)
	}
	fresh, err := m.TailRead(m.Epoch(), 0, 1<<20)
	if err != nil || fresh.Committed != 0 || fresh.Records != 0 {
		t.Fatalf("post-rotation tail: committed %d records %d err %v", fresh.Committed, fresh.Records, err)
	}
}

func TestTailReadOversizedFrame(t *testing.T) {
	db, m := shipDB(t)
	// One insert record far larger than the max chunk.
	big := make([][]storage.Word, 3000)
	for i := range big {
		big[i] = row2(int64(i), int64(i))
	}
	insertLogged(t, db, m, big...)
	tail, err := m.TailRead(m.Epoch(), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if total, _ := countFrames(t, tail.Data); total == 0 {
		t.Fatal("oversized frame was not shipped whole")
	}
}

func TestChangedWakesOnCommitAndRotation(t *testing.T) {
	db, m := shipDB(t)
	ch := m.Changed()
	insertLogged(t, db, m, row2(1, 1))
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("commit did not wake Changed")
	}
	ch = m.Changed()
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("rotation did not wake Changed")
	}
}

func TestParseFrameTornAndCorrupt(t *testing.T) {
	db, m := shipDB(t)
	insertLogged(t, db, m, row2(1, 1))
	tail, err := m.TailRead(m.Epoch(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := tail.Data

	if body, n, err := ParseFrame(data); err != nil || n == 0 || len(body) != n-8 {
		t.Fatalf("whole frame: body %d, n %d, err %v", len(body), n, err)
	}
	for _, cut := range []int{0, 3, 7, 8} {
		if _, n, err := ParseFrame(data[:cut]); n != 0 || err != nil {
			t.Fatalf("torn prefix of %d bytes: n %d err %v, want 0/nil", cut, n, err)
		}
	}
	bad := append([]byte(nil), data...)
	bad[9] ^= 0x01 // flip a body byte of the first frame
	if _, _, err := ParseFrame(bad); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrWALCorrupt", err)
	}
}

// TestTailCommitStamps pins the write-tracing surface: every commit
// stamps a monotonic sequence + wall-clock time (plus the tagged
// correlation id), TailRead resolves the newest stamp its bytes cover,
// and a rotation clears the ring instead of mapping stale offsets.
func TestTailCommitStamps(t *testing.T) {
	db, m := shipDB(t)
	before := time.Now().UnixNano()
	m.Tag("q-ship-1")
	insertLogged(t, db, m, row2(1, 10))

	tail, err := m.TailRead(m.Epoch(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Two commits so far (create-table, tagged insert): the full tail
	// resolves to the newest.
	if tail.CommitSeq != 2 {
		t.Fatalf("CommitSeq = %d, want 2", tail.CommitSeq)
	}
	if tail.QueryID != "q-ship-1" {
		t.Fatalf("QueryID = %q, want q-ship-1", tail.QueryID)
	}
	if tail.CommitNanos < before || tail.CommitNanos > time.Now().UnixNano() {
		t.Fatalf("CommitNanos %d outside test window", tail.CommitNanos)
	}
	if seq, nanos, qid := m.LastCommit(); seq != 2 || nanos != tail.CommitNanos || qid != "q-ship-1" {
		t.Fatalf("LastCommit = (%d, %d, %q)", seq, nanos, qid)
	}

	// A caught-up poll (empty Data) still reports the stamp at the held
	// offset; the tag was consumed by its commit, not left sticky.
	insertLogged(t, db, m, row2(2, 20))
	caught, err := m.TailRead(m.Epoch(), m.WALSize(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if caught.CommitSeq != 3 || caught.QueryID != "" {
		t.Fatalf("caught-up stamp = (%d, %q), want (3, \"\")", caught.CommitSeq, caught.QueryID)
	}

	// Rotation: stamps reset; a fresh tail of the new epoch has no stamp
	// until the next commit, then stamps resume with rising seqs.
	if _, err := m.CheckpointFrom(db.Catalog(), m.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if seq, _, _ := m.LastCommit(); seq != 0 {
		t.Fatalf("post-rotation LastCommit seq = %d, want 0", seq)
	}
	rot, err := m.TailRead(m.Epoch(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rot.CommitSeq != 0 || rot.CommitNanos != 0 || rot.QueryID != "" {
		t.Fatalf("post-rotation tail stamp = (%d, %d, %q), want zeros", rot.CommitSeq, rot.CommitNanos, rot.QueryID)
	}
	insertLogged(t, db, m, row2(3, 30))
	after, err := m.TailRead(m.Epoch(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if after.CommitSeq != 4 {
		t.Fatalf("post-rotation CommitSeq = %d, want 4 (seq keeps rising)", after.CommitSeq)
	}
}
