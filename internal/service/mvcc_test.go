package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// countSum is the snapshot-consistency probe: count and sum of a table's
// single int64 column. Writers in these tests append consecutive values
// 0,1,2,... so every prefix-consistent state satisfies
// sum == cnt*(cnt-1)/2 — a torn read (rows from one version, more rows
// from a later one, or a half-applied batch) breaks the identity.
func countSum(t testing.TB, s *DB, table string) (cnt, sum int64) {
	t.Helper()
	res, err := s.Query(plan.Aggregate{
		Child: plan.Scan{Table: table, Cols: []int{0}},
		Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "n"},
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "s"},
		},
	})
	if err != nil {
		t.Fatalf("countSum(%s): %v", table, err)
	}
	return storage.DecodeInt(res.Rows[0][0]), storage.DecodeInt(res.Rows[0][1])
}

func checkPrefix(t testing.TB, cnt, sum int64, batch int64) {
	t.Helper()
	if want := cnt * (cnt - 1) / 2; sum != want {
		t.Errorf("torn read: %d rows sum %d, want %d", cnt, sum, want)
	}
	if batch > 0 && cnt%batch != 0 {
		t.Errorf("partial batch visible: %d rows is not a multiple of %d", cnt, batch)
	}
}

// TestServiceSnapshotConsistency is the MVCC race suite: concurrent
// inserts, bulk loads and re-layouts publish versions while readers
// hammer queries. Every read must observe a fully committed prefix
// (count a whole number of batches, sum matching the consecutive-values
// identity — i.e. row-identical to a serial run against its pinned
// epoch), results on the untouched demo table must stay bit-stable, and
// superseded versions must all be reclaimed once readers drain.
func TestServiceSnapshotConsistency(t *testing.T) {
	const demoRows = 20_000
	refQ := DemoQuery(0.1)
	want := reference(t, demoRows, refQ)[0]

	db := NewDemoDB(demoRows)
	DemoWorkload(db)
	s := New(db, Config{Workers: 4, MaxInFlight: 16})
	defer s.Close()
	if _, err := s.Load(LoadSpec{Table: "t", Format: "csv", CreateSpec: "v:int64"},
		strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Stats().Epoch

	const (
		batch   = 50
		batches = 40
		readers = 6
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: alternate insert plans and bulk loads, values consecutive
		defer wg.Done()
		next := int64(0)
		for j := 0; j < batches; j++ {
			if j%2 == 0 {
				rows := make([][]storage.Word, batch)
				for i := range rows {
					rows[i] = []storage.Word{storage.EncodeInt(next)}
					next++
				}
				if _, err := s.Query(plan.Insert{Table: "t", Rows: rows}); err != nil {
					t.Errorf("insert batch %d: %v", j, err)
					return
				}
			} else {
				var b strings.Builder
				for i := 0; i < batch; i++ {
					fmt.Fprintf(&b, "%d\n", next)
					next++
				}
				if _, err := s.Load(LoadSpec{Table: "t", Format: "csv"},
					strings.NewReader(b.String())); err != nil {
					t.Errorf("load batch %d: %v", j, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // relayouts on the demo table, concurrent with everything
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.OptimizeLayouts(); err != nil {
				t.Errorf("optimize %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			for i := 0; i < 60; i++ {
				cnt, sum := countSum(t, s, "t")
				checkPrefix(t, cnt, sum, batch)
				// The untouched demo table stays bit-identical to serial.
				res, tr, err := s.QueryEx(refQ, QueryOpts{Explain: true})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !result.Equal(res, want) {
					t.Errorf("reader %d: demo result drifted from serial reference", r)
					return
				}
				// Epochs observed by one goroutine never go backwards.
				if tr.Epoch < lastEpoch {
					t.Errorf("reader %d: epoch went backwards %d -> %d", r, lastEpoch, tr.Epoch)
					return
				}
				lastEpoch = tr.Epoch
			}
		}(r)
	}
	wg.Wait()

	cnt, sum := countSum(t, s, "t")
	checkPrefix(t, cnt, sum, batch)
	if cnt != batch*batches {
		t.Fatalf("final count %d, want %d", cnt, batch*batches)
	}
	if epoch := s.Stats().Epoch; epoch <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, epoch)
	}
	// Readers drained: every superseded version must have been reclaimed.
	if live := db.LiveVersions(); live != 1 {
		t.Fatalf("reclaim backlog not drained: %d live versions", live)
	}
	if db.VersionsReclaimed() == 0 {
		t.Fatal("no versions reclaimed despite many commits")
	}
	if active := db.ActiveSnapshots(); active != 0 {
		t.Fatalf("%d snapshots still pinned after drain", active)
	}
}

// TestQueriesDuringSlowWriterCommit holds a writer mid-commit on the WAL
// failpoint and asserts reads complete lock-free meanwhile: every query
// answers row-identical to the pinned (pre-write) epoch, and the write
// publishes only after the failpoint releases.
func TestQueriesDuringSlowWriterCommit(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	t.Cleanup(func() {
		s.Close()
		mgr.Close()
	})
	if _, err := s.Load(LoadSpec{Table: "t", Format: "csv", CreateSpec: "v:int64"},
		strings.NewReader("0\n1\n2\n")); err != nil {
		t.Fatal(err)
	}
	preEpoch := s.Stats().Epoch

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(faultinject.Enable("persist/wal-commit", func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}))

	writerDone := make(chan error, 1)
	go func() {
		_, err := s.Query(plan.Insert{Table: "t", Rows: [][]storage.Word{{storage.EncodeInt(3)}}})
		writerDone <- err
	}()
	<-entered // the writer is now stalled mid-commit, holding the commit mutex

	// Reads must neither block nor observe the in-flight write.
	for i := 0; i < 20; i++ {
		cnt, sum := countSum(t, s, "t")
		if cnt != 3 || sum != 3 {
			t.Fatalf("query %d saw the unpublished write: count %d sum %d", i, cnt, sum)
		}
		_, tr, err := s.QueryEx(plan.Scan{Table: "t", Cols: []int{0}}, QueryOpts{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Epoch != preEpoch {
			t.Fatalf("query %d ran at epoch %d, want pinned pre-write epoch %d", i, tr.Epoch, preEpoch)
		}
	}
	select {
	case err := <-writerDone:
		t.Fatalf("writer finished while the failpoint held it: %v", err)
	default:
	}

	close(release)
	if err := <-writerDone; err != nil {
		t.Fatalf("stalled writer failed after release: %v", err)
	}
	if cnt, sum := countSum(t, s, "t"); cnt != 4 || sum != 6 {
		t.Fatalf("write lost after release: count %d sum %d", cnt, sum)
	}
	if got := s.Stats().Epoch; got != preEpoch+1 {
		t.Fatalf("epoch after commit %d, want %d", got, preEpoch+1)
	}
}

// TestWriteCommitsDuringSlowCheckpoint pins the checkpoint on its
// failpoint (which fires after the snapshot version and WAL position are
// taken, with no lock held) and asserts a write commits and serves while
// the snapshot file is "being written" — then reopens the directory to
// prove the write survived via the preserved WAL suffix, even though the
// snapshot file predates it.
func TestWriteCommitsDuringSlowCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, mgr := openPersistent(t, dir, Config{Workers: 1})
	closed := false
	t.Cleanup(func() {
		if !closed {
			s.Close()
			mgr.Close()
		}
	})
	if _, err := s.Load(LoadSpec{Table: "t", Format: "csv", CreateSpec: "v:int64"},
		strings.NewReader("0\n1\n2\n")); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(faultinject.Enable("persist/checkpoint", func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}))

	ckptDone := make(chan error, 1)
	go func() {
		_, err := s.Checkpoint()
		ckptDone <- err
	}()
	<-entered // snapshot pinned, WAL position taken, checkpoint "writing"

	// A write commits mid-checkpoint: the commit mutex is free.
	if _, err := s.Query(plan.Insert{Table: "t", Rows: [][]storage.Word{{storage.EncodeInt(3)}}}); err != nil {
		t.Fatalf("insert during checkpoint: %v", err)
	}
	if cnt, sum := countSum(t, s, "t"); cnt != 4 || sum != 6 {
		t.Fatalf("write not visible during checkpoint: count %d sum %d", cnt, sum)
	}
	select {
	case err := <-ckptDone:
		t.Fatalf("checkpoint finished while failpoint held it: %v", err)
	default:
	}

	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// The insert committed after the checkpoint position: its record must
	// have been carried into the successor WAL, not discarded.
	if mgr.WALSize() == 0 {
		t.Fatal("WAL empty after checkpoint — the mid-checkpoint write's record was dropped")
	}

	s.Close()
	mgr.Close()
	closed = true
	db2, mgr2, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mgr2.Close()
	s2 := New(db2, Config{Workers: 1})
	defer s2.Close()
	if cnt, sum := countSum(t, s2, "t"); cnt != 4 || sum != 6 {
		t.Fatalf("recovery lost the mid-checkpoint write: count %d sum %d, want 4/6", cnt, sum)
	}
}

// TestReplicaQueryDuringLargeApply ships a large WAL chunk into a
// replica while queries run against it concurrently: ApplyReplicated
// builds the whole chunk into the next version and publishes atomically,
// so every concurrent read sees either none or all of the chunk — never
// a partially applied prefix.
func TestReplicaQueryDuringLargeApply(t *testing.T) {
	primary, pmgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	t.Cleanup(func() {
		primary.Close()
		pmgr.Close()
	})

	// Seed batch: values 0..99.
	var seed strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&seed, "%d\n", i)
	}
	if _, err := primary.Load(LoadSpec{Table: "t", Format: "csv", CreateSpec: "v:int64"},
		strings.NewReader(seed.String())); err != nil {
		t.Fatal(err)
	}
	tail1, err := pmgr.TailRead(pmgr.Epoch(), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	// Large batch: values 100..20099 (several thousand WAL rows).
	const big = 20_000
	var bulk strings.Builder
	for i := 100; i < 100+big; i++ {
		fmt.Fprintf(&bulk, "%d\n", i)
	}
	if _, err := primary.Load(LoadSpec{Table: "t", Format: "csv"},
		strings.NewReader(bulk.String())); err != nil {
		t.Fatal(err)
	}
	tail2, err := pmgr.TailRead(pmgr.Epoch(), int64(len(tail1.Data)), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail2.Data) == 0 {
		t.Fatal("no WAL bytes for the large batch")
	}

	replica := New(core.Open(), Config{Workers: 2, MaxInFlight: 8})
	defer replica.Close()
	replica.SetReadOnly("http://primary.invalid")
	if _, _, err := replica.ApplyReplicated(tail1.Data, pmgr.Epoch()); err != nil {
		t.Fatalf("applying seed chunk: %v", err)
	}
	if cnt, _ := countSum(t, replica, "t"); cnt != 100 {
		t.Fatalf("replica seed count %d, want 100", cnt)
	}

	var applying atomic.Bool
	applying.Store(true)
	applyDone := make(chan struct{})
	go func() {
		defer close(applyDone)
		defer applying.Store(false)
		consumed, applied, err := replica.ApplyReplicated(tail2.Data, pmgr.Epoch())
		if err != nil || consumed != len(tail2.Data) || applied == 0 {
			t.Errorf("large apply: consumed %d/%d applied %d err %v",
				consumed, len(tail2.Data), applied, err)
		}
	}()
	sawOld := 0
	for applying.Load() {
		cnt, sum := countSum(t, replica, "t")
		checkPrefix(t, cnt, sum, 0)
		if cnt != 100 && cnt != 100+big {
			t.Fatalf("replica read saw a half-applied chunk: %d rows", cnt)
		}
		if cnt == 100 {
			sawOld++
		}
	}
	<-applyDone
	if sawOld == 0 {
		t.Log("note: no read landed while the chunk applied (fast apply); atomicity still asserted")
	}
	if cnt, sum := countSum(t, replica, "t"); cnt != 100+big {
		t.Fatalf("replica final count %d sum %d, want %d", cnt, sum, 100+big)
	}
	// Local writes stay rejected throughout.
	if _, err := replica.Query(plan.Insert{Table: "t", Rows: [][]storage.Word{{storage.EncodeInt(1)}}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica accepted a local write: %v", err)
	}
}

// TestMVCCSoak runs the full mix — bulk loads, inserts, queries,
// checkpoints and layout optimization — concurrently against one
// persistence-backed service. CI runs it under -race. Every read must
// satisfy the committed-prefix identity; every subsystem must finish
// error-free; the version backlog must drain.
func TestMVCCSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	db, mgr, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	LoadDemo(db, 10_000)
	DemoWorkload(db)
	s := New(db, Config{Workers: 4, MaxInFlight: 16})
	s.AttachPersist(mgr, -1)
	t.Cleanup(func() {
		s.Close()
		mgr.Close()
	})
	if _, err := s.Load(LoadSpec{Table: "t", Format: "csv", CreateSpec: "v:int64"},
		strings.NewReader("")); err != nil {
		t.Fatal(err)
	}

	const (
		batch   = 100
		batches = 30
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // loader: consecutive values through the bulk path
		defer wg.Done()
		defer close(stop)
		next := int64(0)
		for j := 0; j < batches; j++ {
			var b strings.Builder
			for i := 0; i < batch; i++ {
				fmt.Fprintf(&b, "%d\n", next)
				next++
			}
			if _, err := s.Load(LoadSpec{Table: "t", Format: "csv"},
				strings.NewReader(b.String())); err != nil {
				t.Errorf("soak load %d: %v", j, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpoints racing the loads
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Checkpoint(); err != nil {
				t.Errorf("soak checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // layout optimization racing both
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.OptimizeLayouts(); err != nil {
				t.Errorf("soak optimize: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cnt, sum := countSum(t, s, "t")
				checkPrefix(t, cnt, sum, batch)
			}
		}()
	}
	wg.Wait()

	cnt, sum := countSum(t, s, "t")
	checkPrefix(t, cnt, sum, batch)
	if cnt != batch*batches {
		t.Fatalf("soak final count %d, want %d", cnt, batch*batches)
	}
	if db := s.Unwrap(); db.LiveVersions() != 1 || db.ActiveSnapshots() != 0 {
		t.Fatalf("soak left versions pinned: %d live, %d active snapshots",
			db.LiveVersions(), db.ActiveSnapshots())
	}
}
