package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/service"
)

// nodeSrv is one failover-capable node: a service behind a Node on an
// httptest server, with a kill switch that aborts every connection while
// "down" — the in-process stand-in for kill -9.
type nodeSrv struct {
	svc  *service.DB
	node *Node
	srv  *httptest.Server
	down atomic.Bool
}

func (n *nodeSrv) gate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			panic(http.ErrAbortHandler) // drop the connection, no response
		}
		h.ServeHTTP(w, r)
	})
}

// fastTune makes the circuit breaker observable in test time: degraded
// after 2 failures, promote-eligible after 3, backoff in the tens of
// milliseconds.
func fastTune(r *Replica) {
	r.Backoff = 10 * time.Millisecond
	r.BackoffCap = 50 * time.Millisecond
	r.DegradedAfter = 2
	r.PromoteAfter = 3
	r.SnapshotTimeout = 5 * time.Second
	r.PollTimeout = 2 * time.Second
}

// startNodePrimary brings up a durable primary wrapped in a Node (so it
// can be demoted after a failover).
func startNodePrimary(t *testing.T) *nodeSrv {
	t.Helper()
	db, mgr, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(db, service.Config{Workers: 1})
	svc.AttachPersist(mgr, -1)
	n := &nodeSrv{svc: svc}
	n.node = NewNode(svc, NodeConfig{Mgr: mgr, CheckpointWAL: -1, Tune: fastTune, DrainWait: time.Second})
	if err := n.node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	n.node.Mount(mux)
	n.srv = httptest.NewServer(n.gate(mux))
	t.Cleanup(func() {
		n.srv.Close()
		n.node.Stop()
		svc.Close()
		if m := nodeMgr(n.node); m != nil {
			_ = m.Close()
		}
	})
	return n
}

// startNodeReplica brings up a promotable replica node following url,
// with a data directory held back for promotion storage.
func startNodeReplica(t *testing.T, url string) *nodeSrv {
	t.Helper()
	dir := t.TempDir()
	svc := service.New(core.Open(), service.Config{Workers: 1})
	n := &nodeSrv{svc: svc}
	n.node = NewNode(svc, NodeConfig{
		PrimaryURL:    url,
		CheckpointWAL: -1,
		DrainWait:     time.Second,
		Tune:          fastTune,
		OpenStorage: func() (*persist.Manager, error) {
			_, mgr, err := persist.Open(persist.Options{Dir: dir, Fresh: true})
			return mgr, err
		},
	})
	if err := n.node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	n.node.Mount(mux)
	n.srv = httptest.NewServer(n.gate(mux))
	t.Cleanup(func() {
		n.srv.Close()
		n.node.Stop()
		svc.Close()
		if m := nodeMgr(n.node); m != nil {
			_ = m.Close()
		}
	})
	return n
}

// nodeMgr returns n's current durability manager (nil on a replica that
// has not been promoted).
func nodeMgr(n *Node) *persist.Manager {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Mgr
}

// statsOf reads svc's metric registry as the /stats object.
func statsOf(t *testing.T, svc *service.DB) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSeries checks the /stats value of each named counter or gauge.
func assertSeries(t *testing.T, who string, svc *service.DB, want map[string]float64) {
	t.Helper()
	st := statsOf(t, svc)
	for series, v := range want {
		if st[series] != v {
			t.Errorf("%s: %s = %v, want %v", who, series, st[series], v)
		}
	}
}

// waitMgrCaughtUp blocks until follower's applied position equals the
// primary manager's committed WAL at its current epoch.
func waitMgrCaughtUp(t *testing.T, follower *service.DB, mgr *persist.Manager) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := follower.Replication()
		if st.Role == "replica" && !st.Fenced &&
			st.ApplyEpoch == mgr.Epoch() && st.ApplyOffset == mgr.WALSize() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := follower.Replication()
	t.Fatalf("follower never caught up: at (%d, %d) fenced=%v, primary at (%d, %d)",
		st.ApplyEpoch, st.ApplyOffset, st.Fenced, mgr.Epoch(), mgr.WALSize())
}

func waitState(t *testing.T, svc *service.DB, pred func(service.ReplicationReport) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if pred(svc.Replication()) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (replication: %+v)", what, svc.Replication())
}

func promoteEligible(st service.ReplicationReport) bool {
	return st.State == service.ReplStatePromoteEligible
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestFailoverPromoteFenceRejoin is the failover acceptance test, fully
// in-process and deterministic (run under -race):
//
//  1. primary A streams to replica B, then dies mid-stream;
//  2. B degrades, becomes promote-eligible, and is promoted to term 2 —
//     accepting writes;
//  3. A is revived; a term-2 tail request fences it (writes rejected
//     with ErrFenced);
//  4. A is demoted to a replica of B, re-bootstraps, and converges to a
//     bit-identical catalog.
func TestFailoverPromoteFenceRejoin(t *testing.T) {
	a := startNodePrimary(t)
	loadCSV(t, a.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 300))
	loadCSV(t, a.svc, "ev", "k:int64,v:int64", "0,100\n1,200\n2,300\n")

	b := startNodeReplica(t, a.srv.URL)
	waitMgrCaughtUp(t, b.svc, nodeMgr(a.node))

	// More writes land on A, and A dies before B necessarily sees them.
	loadCSV(t, a.svc, "t", "", rowsCSV(300, 400))
	a.down.Store(true)

	// B keeps serving reads, reports degraded, then promote-eligible.
	waitState(t, b.svc, service.ReplicationReport.Degraded, "replica degraded")
	waitState(t, b.svc, promoteEligible, "promote-eligible")

	// Promote B over HTTP: term 2, writable, serving /repl/*.
	resp, body := postJSON(t, b.srv.URL+PromotePath, map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", resp.StatusCode, body)
	}
	if got := b.svc.Term(); got != 2 {
		t.Fatalf("promoted term = %d, want 2", got)
	}
	if st := b.svc.Replication(); st.Role != "primary" {
		t.Fatalf("promoted role = %s, want primary", st.Role)
	}
	assertSeries(t, "promoted node", b.svc, map[string]float64{
		"db_repl_term": 2, "db_promotions_total": 1, "db_fences_total": 0,
	})
	// Writes at term 2 succeed.
	loadCSV(t, b.svc, "t", "", rowsCSV(1000, 1100))

	// Revive A. A tail request carrying term 2 fences it deterministically
	// (in production the new primary's probes or a rejoining follower do
	// this; any /repl/* exchange carries the token).
	a.down.Store(false)
	req, err := http.NewRequest(http.MethodGet, a.srv.URL+WALPath+"?epoch=1&offset=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(hdrTerm, "2")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fencing tail request: status %d (%s), want 503", fresp.StatusCode, fbody)
	}
	if fenced, _ := a.svc.Fenced(); !fenced {
		t.Fatal("old primary did not fence on a higher-term request")
	}
	assertSeries(t, "fenced node", a.svc, map[string]float64{
		"db_repl_term": 2, "db_promotions_total": 0, "db_fences_total": 1,
	})

	// The fenced old primary rejects writes with ErrFenced — locally and
	// over HTTP (409).
	if _, err := a.svc.Load(service.LoadSpec{Table: "t", Format: "csv"},
		strings.NewReader("9999,1,x,1.0\n")); !errors.Is(err, service.ErrFenced) {
		t.Fatalf("fenced primary write error = %v, want ErrFenced", err)
	}
	wresp, werr := http.Post(a.srv.URL+"/load?table=t&format=csv", "text/csv",
		strings.NewReader("9999,1,x,1.0\n"))
	if werr != nil {
		t.Fatal(werr)
	}
	wbody, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusConflict || !strings.Contains(string(wbody), "fenced") {
		t.Fatalf("fenced primary /load: status %d body %s, want 409 mentioning fenced", wresp.StatusCode, wbody)
	}

	// Demote A behind B. It re-bootstraps from B's snapshot (clearing the
	// fence) and catches up with further writes.
	dresp, dbody := postJSON(t, a.srv.URL+DemotePath, map[string]any{"primary": b.srv.URL, "term": 2})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("demote: status %d: %s", dresp.StatusCode, dbody)
	}
	loadCSV(t, b.svc, "t", "", rowsCSV(1100, 1200))
	waitMgrCaughtUp(t, a.svc, nodeMgr(b.node))

	st := a.svc.Replication()
	if st.Role != "replica" || st.Fenced || st.Primary != b.srv.URL {
		t.Fatalf("rejoined node: role=%s fenced=%v primary=%s, want clean replica of %s",
			st.Role, st.Fenced, st.Primary, b.srv.URL)
	}
	if st.Term != 2 {
		t.Fatalf("rejoined node term = %d, want 2", st.Term)
	}
	// A tailed B's post-demote writes: it timed poll rounds, and B counts
	// it among its tail streams (between two long polls the gauge may
	// read 0, so wait for one).
	h, _ := statsOf(t, a.svc)["db_repl_poll_seconds"].(map[string]any)
	if n, _ := h["count"].(float64); n <= 0 {
		t.Errorf("rejoined node: db_repl_poll_seconds = %v, want a positive count", h)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statsOf(t, b.svc)["db_repl_followers"] != 1.0 {
		if time.Now().After(deadline) {
			t.Fatalf("new primary: db_repl_followers = %v, want 1", statsOf(t, b.svc)["db_repl_followers"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Local writes now name the new primary.
	if _, err := a.svc.Load(service.LoadSpec{Table: "t", Format: "csv"},
		strings.NewReader("9999,1,x,1.0\n")); !errors.Is(err, service.ErrReadOnly) ||
		!strings.Contains(err.Error(), b.srv.URL) {
		t.Fatalf("rejoined replica write error = %v, want ErrReadOnly naming %s", err, b.srv.URL)
	}

	// Catalogs converged bit-identically (A's lost tail was discarded with
	// its superseded history; B's post-promotion writes are present).
	assertReplicaIdentical(t, b.svc.Unwrap(), a.svc.Unwrap())
}

// TestPromoteIdempotent promotes the same node twice: the second call is
// a no-op reporting the current term.
func TestPromoteIdempotent(t *testing.T) {
	a := startNodePrimary(t)
	loadCSV(t, a.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 50))
	b := startNodeReplica(t, a.srv.URL)
	waitMgrCaughtUp(t, b.svc, nodeMgr(a.node))

	term1, err := b.node.Promote()
	if err != nil {
		t.Fatal(err)
	}
	term2, err := b.node.Promote()
	if err != nil {
		t.Fatalf("second promote errored: %v", err)
	}
	if term1 != term2 {
		t.Fatalf("idempotent promote changed the term: %d then %d", term1, term2)
	}
}

// TestDemoteStaleTerm rejects a demote carrying a term below the node's
// own — a delayed command from a dead coordinator must not fence a
// current primary.
func TestDemoteStaleTerm(t *testing.T) {
	a := startNodePrimary(t)
	loadCSV(t, a.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 50))
	a.svc.AdoptTerm(5)

	if err := a.node.Demote("http://example.invalid:1", 3); err == nil {
		t.Fatal("stale-term demote accepted")
	}
	resp, body := postJSON(t, a.srv.URL+DemotePath, map[string]any{"primary": "http://example.invalid:1", "term": 3})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-term demote over HTTP: status %d (%s), want 409", resp.StatusCode, body)
	}
	if fenced, _ := a.svc.Fenced(); fenced {
		t.Fatal("stale demote fenced the primary")
	}
	if a.svc.Replication().Role == "replica" {
		t.Fatal("stale demote flipped the primary read-only")
	}
}

// TestDemoteRejectsMalformedBody: a /demote body is read by the request
// envelope's rules, so a term that is not an unsigned integer, or bytes
// after the object, are a 400 that leaves the primary unfenced.
func TestDemoteRejectsMalformedBody(t *testing.T) {
	a := startNodePrimary(t)
	for _, body := range []string{
		`{"primary": "http://example.invalid:1", "term": -1}`,
		`{"primary": "http://example.invalid:1", "term": 1.5}`,
		`{"primary": "http://example.invalid:1", "term": 18446744073709551616}`,
		`{"primary": "http://example.invalid:1", "term": 2} x`,
		`{"primary": "http://example.invalid:1", "term": 2}{"term": 3}`,
		`{"primary": 5, "term": 2}`,
	} {
		resp, err := http.Post(a.srv.URL+DemotePath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("demote %s: status %d (%s), want 400", body, resp.StatusCode, msg)
		}
	}
	if fenced, _ := a.svc.Fenced(); fenced {
		t.Fatal("a malformed demote fenced the primary")
	}
	if a.svc.Replication().Role == "replica" {
		t.Fatal("a malformed demote flipped the primary read-only")
	}
}

// TestPromoteWithoutStorage: a replica with no data directory and no
// OpenStorage hook cannot become a primary (it could not feed followers);
// the promote fails cleanly and the tail loop resumes.
func TestPromoteWithoutStorage(t *testing.T) {
	a := startNodePrimary(t)
	loadCSV(t, a.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 50))

	svc := service.New(core.Open(), service.Config{Workers: 1})
	defer svc.Close()
	node := NewNode(svc, NodeConfig{PrimaryURL: a.srv.URL, Tune: fastTune, DrainWait: 100 * time.Millisecond})
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	waitMgrCaughtUp(t, svc, nodeMgr(a.node))

	if _, err := node.Promote(); err == nil {
		t.Fatal("promote without storage succeeded")
	}
	if svc.Replication().Role != "replica" {
		t.Fatal("failed promote left the node writable")
	}
	// The tail loop restarted: new writes still arrive.
	loadCSV(t, a.svc, "t", "", rowsCSV(50, 80))
	waitMgrCaughtUp(t, svc, nodeMgr(a.node))
}

// TestReplicaRejectsStalePrimary covers both sides of the term check: a
// higher-term replica polling an old primary fences it (the request
// token is observed before anything is served), and a response that
// still carries a lower term — a peer that ignored the token, e.g.
// through a header-stripping proxy — is refused outright.
func TestReplicaRejectsStalePrimary(t *testing.T) {
	pri := startPrimary(t) // term 1
	loadCSV(t, pri.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 50))

	svc := service.New(core.Open(), service.Config{Workers: 1})
	defer svc.Close()
	svc.SetReadOnly(pri.srv.URL)
	rep := NewReplica(svc, pri.srv.URL)
	if err := rep.bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.AdoptTerm(3) // a newer primary exists elsewhere
	if err := rep.poll(context.Background()); err == nil {
		t.Fatal("poll against a superseded primary succeeded")
	}
	if fenced, _ := pri.svc.Fenced(); !fenced {
		t.Fatal("superseded primary was not fenced by the higher-term poll")
	}

	// A response reporting a lower term than our own view is stale even if
	// the peer never fenced.
	stale := &http.Response{Header: http.Header{hdrTerm: []string{"2"}}}
	if err := rep.checkTerm(stale); !errors.Is(err, errStalePrimary) {
		t.Fatalf("checkTerm on a term-2 response at local term 3: %v, want errStalePrimary", err)
	}
	// An equal or higher term is adopted.
	newer := &http.Response{Header: http.Header{hdrTerm: []string{"5"}}}
	if err := rep.checkTerm(newer); err != nil {
		t.Fatal(err)
	}
	if got := svc.Term(); got != 5 {
		t.Fatalf("term after adopting 5 = %d", got)
	}
}

// TestHealthzReportsFailoverStates walks /healthz through ok → degraded →
// fenced.
func TestHealthzReportsFailoverStates(t *testing.T) {
	a := startNodePrimary(t)
	loadCSV(t, a.svc, "t", "id:int64,grp:int64,name:string,price:float64", rowsCSV(0, 50))

	health := func(srv *nodeSrv) map[string]any {
		t.Helper()
		resp, err := http.Get(srv.srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz status %d", resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	if h := health(a); h["status"] != "ok" || h["role"] != "primary" {
		t.Fatalf("healthy primary /healthz = %v", h)
	}

	b := startNodeReplica(t, a.srv.URL)
	waitMgrCaughtUp(t, b.svc, nodeMgr(a.node))
	if h := health(b); h["status"] != "ok" || h["role"] != "replica" {
		t.Fatalf("healthy replica /healthz = %v", h)
	}

	a.down.Store(true)
	waitState(t, b.svc, service.ReplicationReport.Degraded, "replica degraded")
	if h := health(b); h["status"] != "degraded" {
		t.Fatalf("degraded replica /healthz = %v", h)
	}
	a.down.Store(false)

	a.svc.Fence(7, "http://new-primary:1")
	if h := health(a); h["status"] != "fenced" {
		t.Fatalf("fenced primary /healthz = %v", h)
	}
}
