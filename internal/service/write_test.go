package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// csvRows returns n "id,id%7" CSV lines starting at id from.
func csvRows(from, n int) string {
	var b strings.Builder
	for i := from; i < from+n; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i%7)
	}
	return b.String()
}

// TestLoadStopsWhenFencedMidStream fences (or demotes to read-only) a
// node while a load streams into it. Every batch is a write of its own,
// so the batches after the role change must be refused: the load stops
// with the role error, reports the one batch that committed, and the
// table holds exactly that batch.
func TestLoadStopsWhenFencedMidStream(t *testing.T) {
	for _, c := range []struct {
		name string
		stop func(*DB)
		want error
	}{
		{"fence", func(s *DB) { s.Fence(2, "http://new-primary") }, ErrFenced},
		{"read-only", func(s *DB) { s.SetReadOnly("http://primary") }, ErrReadOnly},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(core.Open(), Config{Workers: 1})
			defer s.Close()
			pr, pw := io.Pipe()
			type outcome struct {
				res LoadResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,grp:int64"}, pr)
				pr.Close() // unblock any write the load did not consume
				done <- outcome{res, err}
			}()
			rows := func() int {
				if !s.Unwrap().Catalog().Has("ev") {
					return 0
				}
				return s.Unwrap().Table("ev").Rows()
			}

			if _, err := io.WriteString(pw, csvRows(0, loadBatchRows)); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); rows() < loadBatchRows; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("first batch never became visible (%d rows)", rows())
				}
			}
			c.stop(s)
			io.WriteString(pw, csvRows(loadBatchRows, loadBatchRows))
			pw.Close()

			o := <-done
			if !errors.Is(o.err, c.want) {
				t.Fatalf("load across the role change: %v, want %v", o.err, c.want)
			}
			if o.res.Rows != loadBatchRows {
				t.Fatalf("load reports %d rows, want the %d committed before the role change", o.res.Rows, loadBatchRows)
			}
			if got := rows(); got != loadBatchRows {
				t.Fatalf("table holds %d rows, want %d", got, loadBatchRows)
			}
		})
	}
}

// runWriteScript drives one write of every kind through s: a create plus
// a two-batch load whose batches both grow the string dictionary, a
// plan insert, and a relayout. Step errors are returned, not fatal, so
// the script continues past an injected failure.
func runWriteScript(s *DB) []error {
	var csv strings.Builder
	for i := 0; i < loadBatchRows+100; i++ {
		fmt.Fprintf(&csv, "%d,%d,%d,%d,%d,%d,%d,k%d\n", i, i%7, i%11, i%13, i%17, i%19, i%23, i/(loadBatchRows/2))
	}
	_, loadErr := s.Load(LoadSpec{Table: "ev", Format: "csv",
		CreateSpec: "c0:int64,c1:int64,c2:int64,c3:int64,c4:int64,c5:int64,c6:int64,kind:string"},
		strings.NewReader(csv.String()))
	row := make([]storage.Word, 8)
	for i := range row {
		row[i] = storage.EncodeInt(int64(-i))
	}
	row[7] = 0 // the first dictionary code
	_, insErr := s.Query(plan.Insert{Table: "ev", Rows: [][]storage.Word{row}})
	var optErr error
	if s.Unwrap().Catalog().Has("ev") {
		s.AddWorkload("sum-ev", plan.Aggregate{
			Child: plan.Scan{Table: "ev", Cols: []int{1},
				Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(1500)}},
			Aggs: []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "s"}},
		}, 1)
		_, optErr = s.OptimizeLayouts()
	}
	return []error{loadErr, insErr, optErr}
}

// copyDataDir copies the data directory's files as they are on disk
// right now, with the manager still open.
func copyDataDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWriteFaultMatrix runs one write script once per WAL commit it
// makes, failing only that commit, and recovers from a copy of the data
// directory taken without closing the manager. The recovered catalog
// must be byte-identical to the live one: what reached the log is what
// was published, and an acknowledged write is on disk without a flush.
func TestWriteFaultMatrix(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	commits := 0
	for k := 0; k == 0 || k <= commits; k++ {
		t.Run(fmt.Sprintf("fail=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s, mgr := openPersistent(t, dir, Config{Workers: 1})
			defer mgr.Close()
			defer s.Close()
			n := 0
			faultinject.Enable("persist/wal-commit", func() error {
				if n++; n == k {
					return errors.New("injected: disk is gone")
				}
				return nil
			})
			errs := runWriteScript(s)
			faultinject.Reset()

			failed := 0
			for _, err := range errs {
				if errors.Is(err, ErrDurability) {
					failed++
				}
			}
			if k == 0 {
				commits = n
				if err := errors.Join(errs...); err != nil {
					t.Fatalf("script without faults: %v", err)
				}
				if got := s.Stats().Relayouts; got != 1 {
					t.Fatalf("relayouts = %d, want 1: the script must re-lay-out its table", got)
				}
				// create, two dictionary deltas, two batches, an insert, a relayout
				if commits != 7 {
					t.Fatalf("script made %d WAL commits, want 7", commits)
				}
			} else if failed != 1 {
				t.Fatalf("failing commit %d: step errors %v, want exactly one ErrDurability", k, errs)
			}

			var live, recovered bytes.Buffer
			if _, err := persist.WriteCatalogSnapshot(&live, s.Unwrap().Catalog(), 0); err != nil {
				t.Fatal(err)
			}
			db, mgr2, err := persist.Open(persist.Options{Dir: copyDataDir(t, dir)})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr2.Close()
			if _, err := persist.WriteCatalogSnapshot(&recovered, db.Catalog(), 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
				t.Fatalf("failing commit %d: recovered catalog differs from the live one", k)
			}
		})
	}
}
