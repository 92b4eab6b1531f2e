package repl

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/service"
)

// startFaultReplica wires a follower through a fault-injecting transport
// and runs its tail loop (no eager bootstrap — the Run loop owns every
// retry, so injected bootstrap faults are exercised too).
func startFaultReplica(t *testing.T, url string, tr *faultinject.Transport) (*service.DB, *Replica) {
	t.Helper()
	svc := service.New(core.Open(), service.Config{Workers: 1})
	svc.SetReadOnly(url)
	rep := NewReplica(svc, url)
	fastTune(rep)
	rep.SetTransport(tr)
	ctx, cancel := context.WithCancel(context.Background())
	go rep.Run(ctx)
	t.Cleanup(func() {
		cancel()
		svc.Close()
	})
	return svc, rep
}

// TestResyncRacesConcurrentQueries rotates the primary's epoch (410 →
// snapshot resync) while injected delays hold the snapshot fetch open
// and query goroutines hammer the replica — the race between SwapCore
// and concurrent reads, run under -race.
func TestResyncRacesConcurrentQueries(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 300))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,100\n1,200\n")

	tr := &faultinject.Transport{}
	// Hold every snapshot fetch open for a while: queries keep running
	// against the old catalog during the widened resync window.
	slow := tr.Add(&faultinject.Rule{Path: SnapshotPath, Delay: 100 * time.Millisecond})

	rep, _ := startFaultReplica(t, pri.srv.URL, tr)
	waitCaughtUp(t, rep, pri)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	q := plan.Aggregate{
		Child:   plan.Scan{Table: "t", Cols: []int{1, 0}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := rep.QueryEx(q, service.QueryOpts{}); err != nil {
					t.Errorf("replica query during resync: %v", err)
					return
				}
			}
		}()
	}

	// Two rotations with writes in between: each one 410s the parked tail
	// and forces a full re-bootstrap through the delayed transport.
	for i := 0; i < 2; i++ {
		if _, err := pri.svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		loadCSV(t, pri.svc, "t", "", rowsCSV(300+i*100, 400+i*100))
		waitCaughtUp(t, rep, pri)
	}
	close(stop)
	wg.Wait()

	if st := rep.Replication(); st.Syncs < 3 {
		t.Fatalf("replica syncs = %d, want >= 3 (bootstrap + 2 rotation resyncs)", st.Syncs)
	}
	if slow.Hits() < 3 {
		t.Fatalf("snapshot delay rule fired %d times, want >= 3", slow.Hits())
	}
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
}

// TestTornFrameAtRecordBoundary tears the shipped stream in the two ways
// that matter: a cut exactly on a frame boundary (a complete prefix — the
// replica must apply it all and simply re-poll) and a cut a few bytes
// into the next frame (a torn record — the partial frame must be left
// unconsumed and re-requested). Both must converge bit-identically.
func TestTornFrameAtRecordBoundary(t *testing.T) {
	cuts := map[string]func([]byte) []byte{
		// Exactly at the end of the first frame.
		"boundary": func(body []byte) []byte {
			_, n, err := persist.ParseFrame(body)
			if err != nil || n == 0 {
				return body
			}
			return body[:n]
		},
		// Three bytes into the second frame (frames are >= 9 bytes, so
		// this is always mid-frame).
		"boundary+3": func(body []byte) []byte {
			_, n, err := persist.ParseFrame(body)
			if err != nil || n == 0 || n+3 > len(body) {
				return body
			}
			return body[:n+3]
		},
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			pri := startPrimary(t)
			loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 200))
			loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,1\n")

			tr := &faultinject.Transport{}
			torn := tr.Add(&faultinject.Rule{Path: WALPath, Count: 4, Mutate: cut})

			rep, _ := startFaultReplica(t, pri.srv.URL, tr)
			// Several separate loads → several WAL frames, so cut responses
			// really carry more than one frame.
			for i := 0; i < 5; i++ {
				loadCSV(t, pri.svc, "t", "", rowsCSV(200+i*30, 230+i*30))
			}
			waitCaughtUp(t, rep, pri)
			if torn.Hits() == 0 {
				t.Fatal("mutate rule never fired; test exercised nothing")
			}
			assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
		})
	}
}

// TestBootstrapRetryBackoff drops the first snapshot fetches: the Run
// loop must keep retrying with backoff (counting each retry in /stats),
// serve reads throughout, and converge once the primary is reachable.
func TestBootstrapRetryBackoff(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 100))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,1\n1,2\n")

	tr := &faultinject.Transport{}
	drops := tr.Add(&faultinject.Rule{Path: SnapshotPath, Count: 4, Drop: true})

	rep, _ := startFaultReplica(t, pri.srv.URL, tr)

	// Reads serve (empty catalog) while bootstrap retries behind the scenes.
	if tables := rep.Tables(); len(tables) != 0 {
		t.Fatalf("pre-bootstrap replica serves tables: %v", tables)
	}

	waitCaughtUp(t, rep, pri)
	st := rep.Replication()
	if drops.Hits() != 4 {
		t.Fatalf("drop rule fired %d times, want 4", drops.Hits())
	}
	if st.Retries < 4 {
		t.Fatalf("retries = %d, want >= 4 (one per dropped bootstrap)", st.Retries)
	}
	if st.State != service.ReplStateStreaming {
		t.Fatalf("state = %q after convergence, want %q", st.State, service.ReplStateStreaming)
	}
	if st.Degraded() {
		t.Fatalf("healthy replica still reports degraded (state %q)", st.State)
	}
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
}

// TestDegradedThenRecovers kills the stream long enough to cross both
// circuit-breaker thresholds, then restores it: the replica must walk
// degraded → promote-eligible → streaming without a resync-induced gap.
func TestDegradedThenRecovers(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 100))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,1\n")

	tr := &faultinject.Transport{}
	rep, _ := startFaultReplica(t, pri.srv.URL, tr)
	waitCaughtUp(t, rep, pri)

	// 6 consecutive dropped polls: past DegradedAfter (2) and
	// PromoteAfter (3).
	outage := tr.Add(&faultinject.Rule{Path: WALPath, Count: 6, Drop: true})
	waitState(t, rep, promoteEligible, "promote-eligible during outage")

	// Outage ends (rule exhausts itself); new writes flow again.
	loadCSV(t, pri.svc, "t", "", rowsCSV(100, 150))
	waitCaughtUp(t, rep, pri)
	waitState(t, rep, func(st service.ReplicationReport) bool {
		return st.State == service.ReplStateStreaming && !st.Degraded()
	}, "streaming after outage")
	if outage.Hits() != 6 {
		t.Fatalf("outage rule fired %d times, want 6", outage.Hits())
	}
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
}
