package repl

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// TestWriteTracingEndToEnd follows one write across the cluster: the
// load's X-Query-Id is stamped on the WAL commit, shipped to the
// replica, and the replica's measured commit-to-visible lag flows back
// on its next poll into the primary's per-follower registry
// (GET /replication) and lag histogram.
func TestWriteTracingEndToEnd(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,score:float64", rowsCSV(0, 200))
	if _, err := pri.svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Like startReplica, but the follower id must be set before the tail
	// loop starts (it rides every poll).
	rep := service.New(core.Open(), service.Config{Workers: 1})
	rep.SetReadOnly(pri.srv.URL)
	r := NewReplica(rep, pri.srv.URL)
	r.ID = "tracer-1"
	r.Backoff = 20 * time.Millisecond
	if err := r.bootstrap(context.Background()); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go r.Run(ctx)
	t.Cleanup(func() {
		cancel()
		rep.Close()
	})
	waitCaughtUp(t, rep, pri)

	// A correlated write on the primary: the commit stamp must carry its id.
	if _, err := pri.svc.Load(service.LoadSpec{
		Table: "t", Format: "csv", QueryID: "trace-load-9",
	}, strings.NewReader(rowsCSV(200, 300))); err != nil {
		t.Fatal(err)
	}
	if seq, nanos, qid := pri.mgr.LastCommit(); qid != "trace-load-9" || seq <= 0 || nanos <= 0 {
		t.Fatalf("commit stamp = (%d, %d, %q), want a stamped trace-load-9", seq, nanos, qid)
	}
	waitCaughtUp(t, rep, pri)

	// The ack ride-along lands one poll after the apply: wait for the
	// primary's registry to show the follower's applied position and a
	// measured commit-to-visible lag.
	deadline := time.Now().Add(10 * time.Second)
	for {
		report := pri.svc.Replication()
		if len(report.Followers) == 1 {
			f := report.Followers[0]
			if f.ID == "tracer-1" && f.Records == rep.Replication().ApplyRecords && f.LagSeconds > 0 {
				if f.LagBytes != 0 {
					t.Fatalf("caught-up follower reports lagBytes = %d, want 0", f.LagBytes)
				}
				if report.LastCommitID != "trace-load-9" {
					t.Fatalf("primary lastCommitId = %q, want trace-load-9", report.LastCommitID)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower ack never reached the primary: %+v", report)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The replica published the same lag measurement locally.
	if lag := rep.Replication().VisibleLagMs; lag <= 0 {
		t.Fatalf("replica visibleLagMs = %v, want > 0", lag)
	}

	// And the primary's per-follower lag histogram has samples.
	var buf strings.Builder
	pri.svc.Metrics().WritePrometheus(&buf)
	text := buf.String()
	if !strings.Contains(text, `db_repl_visible_lag_seconds_count{follower="tracer-1"}`) {
		t.Fatalf("per-follower lag histogram missing from /metrics:\n%s", grepLines(text, "db_repl_visible_lag"))
	}
}

// grepLines filters text to lines containing sub (test-failure output).
func grepLines(text, sub string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
