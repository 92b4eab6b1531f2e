package service

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// TestWALCommitFailpoint fails the WAL commit under a load: the service
// must surface ErrDurability (the batch is neither logged nor applied),
// count the persist error, and recover once the fault clears.
func TestWALCommitFailpoint(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	t.Cleanup(func() {
		s.Close()
		mgr.Close()
		faultinject.Reset()
	})
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,name:string"},
		strings.NewReader("1,a\n2,b\n")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected: disk is gone")
	faultinject.EnableError("persist/wal-commit", boom)
	_, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader("3,c\n"))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("load with failing WAL commit: %v, want ErrDurability", err)
	}
	if !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("injected cause lost from the message: %v", err)
	}
	if got := s.Stats().PersistErrors; got == 0 {
		t.Fatal("persist error not counted")
	}

	faultinject.Disable("persist/wal-commit")
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader("4,d\n")); err != nil {
		t.Fatalf("load after fault cleared: %v", err)
	}
}

// TestWALCommitFailsN exercises the transient flavor: the first N
// commits fail, then service resumes without operator action.
func TestWALCommitFailsN(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	t.Cleanup(func() {
		s.Close()
		mgr.Close()
		faultinject.Reset()
	})
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,name:string"},
		strings.NewReader("1,a\n")); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable("persist/wal-commit", faultinject.FailN(errors.New("injected: transient"), 2))
	for i := 0; i < 2; i++ {
		if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader("9,z\n")); !errors.Is(err, ErrDurability) {
			t.Fatalf("attempt %d: %v, want ErrDurability", i, err)
		}
	}
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader("5,e\n")); err != nil {
		t.Fatalf("load after FailN exhausted: %v", err)
	}
}

// TestCheckpointFailpoint fails the snapshot write: Checkpoint must
// return the injected error, leave the WAL intact (nothing was made
// redundant), and succeed after the fault clears.
func TestCheckpointFailpoint(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	t.Cleanup(func() {
		s.Close()
		mgr.Close()
		faultinject.Reset()
	})
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,name:string"},
		strings.NewReader("1,a\n2,b\n")); err != nil {
		t.Fatal(err)
	}
	walBefore := mgr.WALSize()
	if walBefore == 0 {
		t.Fatal("load produced no WAL")
	}

	boom := errors.New("injected: snapshot device full")
	faultinject.EnableError("persist/checkpoint", boom)
	if _, err := s.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("checkpoint with failpoint: %v, want injected error", err)
	}
	if got := mgr.WALSize(); got != walBefore {
		t.Fatalf("failed checkpoint changed the WAL: %d -> %d bytes", walBefore, got)
	}

	faultinject.Disable("persist/checkpoint")
	info, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after fault cleared: %v", err)
	}
	if info.SnapshotBytes == 0 {
		t.Fatalf("checkpoint info %+v", info)
	}
	if got := mgr.WALSize(); got != 0 {
		t.Fatalf("WAL not reset after successful checkpoint: %d bytes", got)
	}
}

// TestRelayoutLogFailurePublishesOnlyWhatWasLogged rejects the WAL commit
// of the first, or of the second, of two relayout decisions. The call
// must fail with ErrDurability and leave memory holding exactly the
// layouts the log holds: the catalog recovered from the data directory is
// byte-identical to the live one.
func TestRelayoutLogFailurePublishesOnlyWhatWasLogged(t *testing.T) {
	var csv strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&csv, "%d,%d,%d,%d,%d,%d,%d,%d\n", i, i%7, i%11, i%13, i%17, i%19, i%23, i%29)
	}
	for logged := 0; logged < 2; logged++ {
		t.Run(fmt.Sprintf("logged=%d", logged), func(t *testing.T) {
			dir := t.TempDir()
			s, mgr := openPersistent(t, dir, Config{Workers: 1})
			t.Cleanup(faultinject.Reset)
			for _, table := range []string{"a", "b"} {
				if _, err := s.Load(LoadSpec{Table: table, Format: "csv",
					CreateSpec: "c0:int64,c1:int64,c2:int64,c3:int64,c4:int64,c5:int64,c6:int64,c7:int64"},
					strings.NewReader(csv.String())); err != nil {
					t.Fatal(err)
				}
				s.AddWorkload("sum-"+table, plan.Aggregate{
					Child: plan.Scan{Table: table, Cols: []int{1},
						Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(1500)}},
					Aggs: []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "s"}},
				}, 1)
			}

			commits := 0
			faultinject.Enable("persist/wal-commit", func() error {
				if commits++; commits > logged {
					return errors.New("injected: disk is gone")
				}
				return nil
			})
			changes, err := s.OptimizeLayouts()
			faultinject.Reset()
			if !errors.Is(err, ErrDurability) {
				t.Fatalf("OptimizeLayouts with a failing WAL: %v, want ErrDurability", err)
			}
			if commits != logged+1 {
				t.Fatalf("%d relayout records attempted, want %d: the workload must re-lay-out both tables", commits, logged+1)
			}
			if len(changes) != logged {
				t.Fatalf("%d decisions published, want the %d that were logged", len(changes), logged)
			}
			if got := s.Stats().Relayouts; got != int64(logged) {
				t.Fatalf("relayouts = %d, want %d", got, logged)
			}

			var live, recovered bytes.Buffer
			if _, err := persist.WriteCatalogSnapshot(&live, s.Unwrap().Catalog(), 0); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			db, mgr2, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr2.Close()
			if _, err := persist.WriteCatalogSnapshot(&recovered, db.Catalog(), 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
				t.Fatal("recovered catalog differs from the live one: memory held a layout the log did not")
			}
		})
	}
}
