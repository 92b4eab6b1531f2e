package service

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/storage"
)

func TestHTTPQueryIDSupplied(t *testing.T) {
	srv, _ := newTestServer(t)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Query-Id", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Query-Id"); got != "trace-me-42" {
		t.Fatalf("supplied query id echoed as %q, want trace-me-42", got)
	}
}

func TestHTTPQueryIDGenerated(t *testing.T) {
	srv, _ := newTestServer(t)

	// Absent, oversized and non-printable ids all get a generated one.
	bad := []string{"", strings.Repeat("x", maxQueryIDLen+1), "has space", "has\ttab"}
	seen := map[string]bool{}
	for _, id := range bad {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Query-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Query-Id")
		if got == id || !strings.HasPrefix(got, "q") || !ValidQueryID(got) {
			t.Fatalf("id %q answered with %q, want a generated q<n>", id, got)
		}
		if seen[got] {
			t.Fatalf("generated id %q repeated", got)
		}
		seen[got] = true
	}
}

func TestValidQueryID(t *testing.T) {
	for id, want := range map[string]bool{
		"q1":                                 true,
		"load-2026-08-08T12:00":              true,
		strings.Repeat("x", maxQueryIDLen):   true,
		"":                                   false,
		strings.Repeat("x", maxQueryIDLen+1): false,
		"two words":                          false,
		"ünïcode":                            false,
	} {
		if got := ValidQueryID(id); got != want {
			t.Errorf("ValidQueryID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestQueryIDStampsWAL follows a correlation id from the write API to the
// commit stamp replication ships: the insert's X-Query-Id must come back
// from the manager as the newest commit's id.
func TestQueryIDStampsWAL(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	defer s.Close()

	if _, err := s.Load(LoadSpec{
		Table: "ev", Format: "csv", CreateSpec: "id:int64", Layout: "column",
		QueryID: "load-1",
	}, strings.NewReader("1\n2\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, qid := mgr.LastCommit(); qid != "load-1" {
		t.Fatalf("after load, stamped id = %q, want load-1", qid)
	}

	ins := plan.Insert{Table: "ev", Rows: [][]storage.Word{{storage.EncodeInt(3)}}}
	if _, _, err := s.QueryEx(ins, QueryOpts{QueryID: "write-7"}); err != nil {
		t.Fatal(err)
	}
	seq, nanos, qid := mgr.LastCommit()
	if qid != "write-7" {
		t.Fatalf("after insert, stamped id = %q, want write-7", qid)
	}
	if seq <= 0 || nanos <= 0 {
		t.Fatalf("commit stamp seq=%d nanos=%d, want both > 0", seq, nanos)
	}
}

func TestHTTPEvents(t *testing.T) {
	srv, s := newTestServer(t)

	s.Event(EventPromote, "promoted", map[string]string{"term": "2"})
	s.Event(EventFence, "fenced", nil)
	s.Event(EventDemote, "demoted", nil)

	resp, out := get(t, srv.URL+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	events := out["events"].([]any)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(events), out)
	}
	for i, kind := range []string{EventPromote, EventFence, EventDemote} {
		e := events[i].(map[string]any)
		if e["kind"] != kind {
			t.Fatalf("event[%d].kind = %v, want %s", i, e["kind"], kind)
		}
		if i > 0 && e["seq"].(float64) <= events[i-1].(map[string]any)["seq"].(float64) {
			t.Fatalf("event seqs not increasing: %v", events)
		}
	}
	if events[0].(map[string]any)["data"].(map[string]any)["term"] != "2" {
		t.Fatalf("promote event lost its data: %v", events[0])
	}

	// The returned cursor resumes exactly after the page.
	next := out["next"].(float64)
	s.Event(EventResync, "resynced", nil)
	resp, out = get(t, srv.URL+"/events?since="+strconv.Itoa(int(next)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events since status = %d", resp.StatusCode)
	}
	events = out["events"].([]any)
	if len(events) != 1 || events[0].(map[string]any)["kind"] != EventResync {
		t.Fatalf("since=%v returned %v, want just the resync", next, out)
	}

	// Paging: limit=2 returns the first two and a cursor to the rest.
	_, out = get(t, srv.URL+"/events?limit=2")
	if n := len(out["events"].([]any)); n != 2 {
		t.Fatalf("limit=2 returned %d events", n)
	}

	resp, _ = get(t, srv.URL+"/events?since=borked")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPHistory(t *testing.T) {
	srv, s := newTestServer(t)

	if _, err := s.Query(DemoQuery(0.01)); err != nil {
		t.Fatal(err)
	}
	s.StartHistory(time.Hour) // primes the ring; the hour tick never fires
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Query(DemoQuery(0.01)); err != nil {
		t.Fatal(err)
	}
	sample := s.SampleHistory()
	if sample.QPS <= 0 || sample.P50Ms <= 0 {
		t.Fatalf("sample after a query: %+v, want positive qps and p50", sample)
	}

	resp, out := get(t, srv.URL+"/history")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history status = %d", resp.StatusCode)
	}
	if got := out["intervalSeconds"].(float64); got != 3600 {
		t.Fatalf("intervalSeconds = %v, want 3600", got)
	}
	samples := out["samples"].([]any)
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	if qps := samples[0].(map[string]any)["qps"].(float64); qps <= 0 {
		t.Fatalf("served sample qps = %v, want > 0", qps)
	}
}

func TestHistoryRingWraps(t *testing.T) {
	s := New(NewDemoDB(1000), Config{Workers: 1})
	defer s.Close()
	s.StartHistory(time.Hour)
	cap := historyCapacity(time.Hour)
	for i := 0; i < cap+5; i++ {
		s.SampleHistory()
	}
	samples, _ := s.History()
	if len(samples) != cap {
		t.Fatalf("retained %d samples, want ring capacity %d", len(samples), cap)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Time.Before(samples[i-1].Time) {
			t.Fatalf("samples out of order at %d", i)
		}
	}
}

func TestHTTPReplicationPrimary(t *testing.T) {
	srv, s := newTestServer(t)

	s.ObserveFollowerPoll("follower-a", 1, 100, 5, int64(250*time.Millisecond))
	s.ObserveFollowerPoll("follower-b", 1, 40, 2, 0)

	resp, out := get(t, srv.URL+"/replication")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replication status = %d", resp.StatusCode)
	}
	if out["role"] != "primary" {
		t.Fatalf("role = %v, want primary", out["role"])
	}
	followers := out["followers"].([]any)
	if len(followers) != 2 {
		t.Fatalf("followers = %v, want 2", followers)
	}
	a := followers[0].(map[string]any)
	if a["id"] != "follower-a" { // sorted by id
		t.Fatalf("followers not sorted: %v", followers)
	}
	if got := a["lagSeconds"].(float64); got != 0.25 {
		t.Fatalf("follower-a lagSeconds = %v, want 0.25", got)
	}
	if a["polls"].(float64) != 1 {
		t.Fatalf("follower-a polls = %v, want 1", a["polls"])
	}
}

func TestHTTPReplicationReplica(t *testing.T) {
	srv, s := newTestServer(t)
	s.SetReadOnly("http://primary:8080")
	s.SetReplicaProgress(3, 512, 9, 128, 2)
	s.SetReplicaVisibleLag(int64(5 * time.Millisecond))

	_, out := get(t, srv.URL+"/replication")
	if out["role"] != "replica" {
		t.Fatalf("role = %v, want replica", out["role"])
	}
	if out["primary"] != "http://primary:8080" {
		t.Fatalf("primary = %v", out["primary"])
	}
	if out["applyOffset"].(float64) != 512 || out["lagBytes"].(float64) != 128 {
		t.Fatalf("replica cursors wrong: %v", out)
	}
	if out["visibleLagMs"].(float64) != 5 {
		t.Fatalf("visibleLagMs = %v, want 5", out["visibleLagMs"])
	}

	// Caught up: the lag fields are present and read zero.
	s.SetReplicaProgress(3, 640, 11, 0, 0)
	_, out = get(t, srv.URL+"/replication")
	for _, k := range []string{"lagBytes", "lagRecords"} {
		if v, ok := out[k]; !ok || v.(float64) != 0 {
			t.Fatalf("caught-up replica %s = %v (present %v), want 0", k, v, ok)
		}
	}
	if out["applyOffset"].(float64) != 640 || out["applyRecords"].(float64) != 11 {
		t.Fatalf("caught-up replica cursors wrong: %v", out)
	}
}

// TestFollowerRegistryCap pins the histogram-cardinality bound: follower
// ids beyond the cap share the "other" overflow series instead of
// minting unbounded metric labels.
func TestFollowerRegistryCap(t *testing.T) {
	s := New(NewDemoDB(1000), Config{Workers: 1})
	defer s.Close()
	for i := 0; i < maxTrackedFollowers+10; i++ {
		s.ObserveFollowerPoll("f-"+strconv.Itoa(i), 1, int64(i), 1, int64(time.Millisecond))
	}
	rep := s.Replication()
	if len(rep.Followers) != maxTrackedFollowers+1 {
		t.Fatalf("tracked %d followers, want cap %d + the overflow bucket",
			len(rep.Followers), maxTrackedFollowers)
	}
	var overflow bool
	for _, f := range rep.Followers {
		if f.ID == "other" {
			overflow = true
			if f.Polls < 9 {
				t.Fatalf("overflow bucket polls = %d, want the excess followers folded in", f.Polls)
			}
		}
	}
	if !overflow {
		t.Fatal("no overflow bucket in the report")
	}
}

func TestStatsQuantiles(t *testing.T) {
	srv, s := newTestServer(t)
	for i := 0; i < 5; i++ {
		if _, err := s.Query(DemoQuery(0.01)); err != nil {
			t.Fatal(err)
		}
	}
	_, out := get(t, srv.URL+"/stats")
	lat := out[`db_query_latency_seconds{outcome="ok"}`].(map[string]any)
	if lat["count"].(float64) != 5 {
		t.Fatalf("latency count = %v, want 5", lat["count"])
	}
	p50, p95, p99 := lat["p50"].(float64), lat["p95"].(float64), lat["p99"].(float64)
	if p50 <= 0 {
		t.Fatalf("p50 = %v, want > 0 after queries", p50)
	}
	if p95 < p50 || p99 < p95 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
}
