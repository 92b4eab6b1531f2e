package repl

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/storage"
)

// primary is a durable service with the replication endpoints mounted on
// an httptest server.
type primary struct {
	svc *service.DB
	mgr *persist.Manager
	srv *httptest.Server
}

func startPrimary(t *testing.T) *primary {
	t.Helper()
	db, mgr, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(db, service.Config{Workers: 1})
	svc.AttachPersist(mgr, -1) // manual checkpoints only
	p := NewPrimary(svc, mgr)
	p.PollWait = 200 * time.Millisecond
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc(SnapshotPath, p.handleSnapshot)
	mux.HandleFunc(WALPath, p.handleWAL)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
		mgr.Close()
	})
	return &primary{svc: svc, mgr: mgr, srv: srv}
}

// startReplica bootstraps a read-only follower of the given URL and runs
// its tail loop until the test ends.
func startReplica(t *testing.T, url string) (*service.DB, *Replica) {
	t.Helper()
	svc := service.New(core.Open(), service.Config{Workers: 1})
	svc.SetReadOnly(url)
	rep := NewReplica(svc, url)
	rep.Backoff = 20 * time.Millisecond
	if err := rep.bootstrap(context.Background()); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go rep.Run(ctx)
	t.Cleanup(func() {
		cancel()
		svc.Close()
	})
	return svc, rep
}

// loadCSV streams CSV rows into the primary through the service's bulk
// loader (each batch is WAL-logged exactly as over HTTP).
func loadCSV(t *testing.T, svc *service.DB, table, create, body string) {
	t.Helper()
	spec := service.LoadSpec{Table: table, Format: "csv", CreateSpec: create}
	if _, err := svc.Load(spec, strings.NewReader(body)); err != nil {
		t.Fatalf("load %s: %v", table, err)
	}
}

func rowsCSV(lo, hi int) string {
	var sb strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&sb, "%d,%d,city-%d,%d.%02d\n", i, i%7, i%13, i%50, i%100)
	}
	return sb.String()
}

// waitCaughtUp blocks until the replica's applied position equals the
// primary's committed WAL at its current epoch.
func waitCaughtUp(t *testing.T, rep *service.DB, pri *primary) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := rep.Replication()
		if st.ApplyEpoch == pri.mgr.Epoch() && st.ApplyOffset == pri.mgr.WALSize() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := rep.Replication()
	t.Fatalf("replica never caught up: at (%d, %d), primary at (%d, %d)",
		st.ApplyEpoch, st.ApplyOffset, pri.mgr.Epoch(), pri.mgr.WALSize())
}

// diffQueries is the cross-engine differential suite over the replicated
// tables.
func diffQueries(db *core.DB) map[string]plan.Node {
	nameCode, _ := db.Catalog().Table("t").Dicts[2].Code("city-3")
	return map[string]plan.Node{
		"full-scan": plan.Scan{Table: "t", Cols: []int{0, 1, 2, 3}},
		"filter": plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(100)},
			Cols:   []int{0, 2},
		},
		"string-eq": plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 2, Op: expr.Eq, Val: nameCode},
			Cols:   []int{0, 2},
		},
		"group-agg": plan.Aggregate{
			Child:   plan.Scan{Table: "t", Cols: []int{1, 0, 3}},
			GroupBy: []int{0},
			Aggs: []expr.AggSpec{
				{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "s"},
				{Kind: expr.Avg, Arg: expr.Col{Attr: 2, Ty: storage.Float64}, Name: "avg"},
				{Kind: expr.Count, Name: "n"},
			},
		},
		"join": plan.HashJoin{
			Left:     plan.Scan{Table: "t", Cols: []int{1, 0}},
			Right:    plan.Scan{Table: "ev", Cols: []int{0, 1}},
			LeftKey:  1,
			RightKey: 0,
		},
		"sort-limit": plan.Limit{
			Child: plan.Sort{
				Child: plan.Scan{Table: "t", Cols: []int{3, 0}},
				Keys:  []plan.SortKey{{Pos: 0, Desc: true}, {Pos: 1}},
			},
			N: 25,
		},
	}
}

// assertReplicaIdentical checks row identity across all five engines and
// byte-identity of the replicated physical design (layouts, partitions,
// dictionaries, index defs) via the canonical snapshot encoding.
func assertReplicaIdentical(t *testing.T, pri, rep *core.DB) {
	t.Helper()
	engines := []string{"jit", "volcano", "bulk", "hyrise", "vector"}
	for name, q := range diffQueries(pri) {
		for _, eng := range engines {
			want, err := pri.QueryWith(eng, q)
			if err != nil {
				t.Fatalf("%s on primary/%s: %v", name, eng, err)
			}
			got, err := rep.QueryWith(eng, q)
			if err != nil {
				t.Fatalf("%s on replica/%s: %v", name, eng, err)
			}
			if !result.Equal(want, got) {
				t.Fatalf("query %s on engine %s: replica differs (%d vs %d rows)",
					name, eng, want.Len(), got.Len())
			}
		}
	}
	var a, b bytes.Buffer
	if _, err := persist.WriteCatalogSnapshot(&a, pri.Catalog(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteCatalogSnapshot(&b, rep.Catalog(), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("replica catalog is not bit-identical to the primary's")
	}
}

// TestReplicationDifferential is the subsystem's acceptance test:
// optimize → snapshot → streamed inserts → catch-up, then row-identical
// results on every engine, a bit-identical physical design, and write
// refusal with the primary's address.
func TestReplicationDifferential(t *testing.T) {
	pri := startPrimary(t)

	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 400))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,100\n1,200\n2,300\n3,400\n")
	pri.svc.AddWorkload("narrow", plan.Aggregate{
		Child: plan.Scan{
			Table:  "t",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(50)},
			Cols:   []int{1, 3},
		},
		Aggs: []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "s"}},
	}, 0.9)
	pri.svc.AddWorkload("wide", plan.Scan{Table: "t", Cols: []int{0, 1, 2, 3}}, 0.1)
	if _, err := pri.svc.OptimizeLayouts(); err != nil {
		t.Fatal(err)
	}
	if _, err := pri.svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rep, _ := startReplica(t, pri.srv.URL)

	// Post-snapshot mutations arrive purely through the shipped WAL,
	// including dictionary growth (new city values) and an index.
	loadCSV(t, pri.svc, "t", "", rowsCSV(400, 650))
	var sb strings.Builder
	for i := 650; i < 700; i++ {
		fmt.Fprintf(&sb, "%d,%d,newtown-%d,%d.%02d\n", i, i%7, i%3, i%50, i%100)
	}
	loadCSV(t, pri.svc, "t", "", sb.String())

	waitCaughtUp(t, rep, pri)
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())

	// Lag accounting converged to zero.
	st := rep.Replication()
	if st.Role != "replica" || st.LagBytes != 0 || st.LagRecords != 0 {
		t.Fatalf("replica stats: role=%s lag=%d bytes/%d records, want replica at 0/0",
			st.Role, st.LagBytes, st.LagRecords)
	}
	if st.ApplyOffset == 0 || st.ApplyRecords == 0 {
		t.Fatalf("replica applied nothing: offset=%d records=%d", st.ApplyOffset, st.ApplyRecords)
	}

	// Local writes are refused with 409 and the primary's address.
	repSrv := httptest.NewServer(rep.Handler())
	defer repSrv.Close()
	resp, err := http.Post(repSrv.URL+"/load?table=t&format=csv", "text/csv", strings.NewReader("1,1,x,1.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replica /load: status %d, want 409 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), pri.srv.URL) {
		t.Fatalf("409 body does not name the primary: %s", body)
	}
	resp, err = http.Post(repSrv.URL+"/optimize", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replica /optimize: status %d, want 409", resp.StatusCode)
	}
	if _, _, err := rep.QueryEx(plan.Insert{Table: "ev", Rows: [][]storage.Word{{storage.EncodeInt(9), storage.EncodeInt(9)}}}, service.QueryOpts{}); err == nil {
		t.Fatal("replica accepted a local insert")
	}
}

// TestEpochRotationMidTail checkpoints the primary while a follower is
// parked mid-tail: the follower must resync from the new snapshot without
// duplicating rows and converge bit-identically again.
func TestEpochRotationMidTail(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 300))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,100\n1,200\n")

	rep, _ := startReplica(t, pri.srv.URL)
	waitCaughtUp(t, rep, pri)
	epochBefore := rep.Replication().ApplyEpoch

	// Rotate while the follower tails; its epoch is discarded.
	if _, err := pri.svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	loadCSV(t, pri.svc, "t", "", rowsCSV(300, 450))

	waitCaughtUp(t, rep, pri)
	st := rep.Replication()
	if st.ApplyEpoch <= epochBefore {
		t.Fatalf("replica epoch %d did not advance past %d after rotation", st.ApplyEpoch, epochBefore)
	}
	if st.Syncs < 2 {
		t.Fatalf("replica syncs = %d, want >= 2 (bootstrap + rotation resync)", st.Syncs)
	}
	// Row counts equal — a duplicated replay would double post-rotation rows.
	if p, r := pri.svc.Unwrap().Catalog().Table("t").Rows(), rep.Unwrap().Catalog().Table("t").Rows(); p != r {
		t.Fatalf("row count diverged: primary %d, replica %d", p, r)
	}
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
}

// TestTornStreamRecovers ships the WAL through a proxy that truncates
// tail responses mid-record: the replica must apply the whole-frame
// prefix, re-request the torn remainder and still converge.
func TestTornStreamRecovers(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 200))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,1\n")

	var torn atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(pri.srv.URL + r.URL.String())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, h := range []string{hdrEpoch, hdrCommitted, hdrRecords} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		// Frames are >= 9 bytes, so cutting 3 bytes always tears the last
		// record (the first few WAL responses only).
		if r.URL.Path == WALPath && resp.StatusCode == http.StatusOK &&
			len(body) > 3 && torn.Add(1) <= 3 {
			body = body[:len(body)-3]
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	defer proxy.Close()

	rep, _ := startReplica(t, proxy.URL)
	loadCSV(t, pri.svc, "t", "", rowsCSV(200, 350))
	waitCaughtUp(t, rep, pri)
	if torn.Load() == 0 {
		t.Fatal("proxy never truncated a response; test exercised nothing")
	}
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
}

// TestConcurrentQueryDuringApply serves reads from the replica while the
// apply loop is streaming mutations in — the race test for the shared
// catalog lock (run under -race).
func TestConcurrentQueryDuringApply(t *testing.T) {
	pri := startPrimary(t)
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 200))
	loadCSV(t, pri.svc, "ev", "k:int64,v:int64", "0,1\n1,2\n")
	rep, _ := startReplica(t, pri.srv.URL)
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
					t.Errorf("replica query during apply: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		loadCSV(t, pri.svc, "t", "", rowsCSV(200+i*40, 240+i*40))
	}
	waitCaughtUp(t, rep, pri)
	close(stop)
	wg.Wait()
	assertReplicaIdentical(t, pri.svc.Unwrap(), rep.Unwrap())
}

// TestApplyReplicatedFrames covers the chunk-apply contract directly:
// whole frames apply, a torn tail is left unconsumed, a corrupted frame
// stops the apply with partial progress.
func TestApplyReplicatedFrames(t *testing.T) {
	// Produce a real WAL: create a table, insert rows.
	db, mgr, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	svc := service.New(db, service.Config{Workers: 1})
	defer svc.Close()
	svc.AttachPersist(mgr, -1)
	loadCSV(t, svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 50))
	tail, err := mgr.TailRead(mgr.Epoch(), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	chunk := tail.Data

	fresh := func() *service.DB {
		s := service.New(core.Open(), service.Config{Workers: 1})
		t.Cleanup(s.Close)
		return s
	}

	// Whole chunk applies cleanly.
	rep := fresh()
	consumed, applied, err := rep.ApplyReplicated(chunk, mgr.Epoch())
	if err != nil || consumed != len(chunk) || applied == 0 {
		t.Fatalf("full apply: consumed %d/%d, applied %d, err %v", consumed, len(chunk), applied, err)
	}
	if got := rep.Unwrap().Catalog().Table("t").Rows(); got != 50 {
		t.Fatalf("replica rows = %d, want 50", got)
	}

	// Torn tail: the partial frame stays unconsumed, the rest applies on
	// the re-request.
	rep = fresh()
	cut := len(chunk) - 3
	consumed, _, err = rep.ApplyReplicated(chunk[:cut], mgr.Epoch())
	if err != nil {
		t.Fatalf("torn apply errored: %v", err)
	}
	if consumed >= cut {
		t.Fatalf("torn apply consumed %d of %d — consumed a partial frame", consumed, cut)
	}
	c2, _, err := rep.ApplyReplicated(chunk[consumed:], mgr.Epoch())
	if err != nil || consumed+c2 != len(chunk) {
		t.Fatalf("resumed apply: consumed %d+%d of %d, err %v", consumed, c2, len(chunk), err)
	}
	if got := rep.Unwrap().Catalog().Table("t").Rows(); got != 50 {
		t.Fatalf("after resume rows = %d, want 50", got)
	}

	// Corrupt frame: error, consumption stops before it.
	rep = fresh()
	bad := append([]byte(nil), chunk...)
	bad[len(bad)-1] ^= 0xff
	consumed, _, err = rep.ApplyReplicated(bad, mgr.Epoch())
	if err == nil {
		t.Fatal("corrupt frame applied without error")
	}
	if consumed >= len(bad) {
		t.Fatal("corrupt frame was consumed")
	}

	// Wrong epoch: the leading epoch marker is rejected.
	rep = fresh()
	if _, _, err := rep.ApplyReplicated(chunk, mgr.Epoch()+7); err == nil {
		t.Fatal("epoch mismatch went unnoticed")
	}
}
