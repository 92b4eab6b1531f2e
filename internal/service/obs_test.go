package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec/result"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

func TestExplainTraceJIT(t *testing.T) {
	want := reference(t, testRows, DemoQuery(0.01))
	s := New(NewDemoDB(testRows), Config{Workers: 2})
	defer s.Close()

	res, tr, err := s.QueryEx(DemoQuery(0.01), QueryOpts{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(res, want[0]) {
		t.Fatal("traced result differs from serial reference")
	}
	if tr == nil {
		t.Fatal("Explain returned no trace")
	}
	rep := tr.Report()
	if len(rep) < 2 {
		t.Fatalf("trace has %d ops, want at least aggregate+scan", len(rep))
	}
	ops := map[string]bool{}
	var scanIn int64
	for _, op := range rep {
		ops[op.Op] = true
		if op.Op == "scan" {
			scanIn = op.RowsIn
			if op.Nanos <= 0 {
				t.Errorf("scan recorded %d nanos, want > 0", op.Nanos)
			}
			if len(op.Workers) == 0 {
				t.Error("parallel scan recorded no worker lanes")
			}
		}
	}
	if !ops["scan"] || !ops["group-by"] {
		t.Fatalf("trace ops = %v, want scan and group-by", rep)
	}
	if scanIn != testRows {
		t.Fatalf("scan rowsIn = %d, want %d", scanIn, testRows)
	}
}

// TestTracedResultsIdentical runs traced and untraced queries
// concurrently (the -race exercise for the counting loops and their
// flushes) and asserts every result is row-identical to the serial
// reference.
func TestTracedResultsIdentical(t *testing.T) {
	queries := []plan.Node{DemoQuery(0.0001), DemoQuery(0.01), DemoQuery(0.1)}
	want := reference(t, testRows, queries...)
	s := New(NewDemoDB(testRows), Config{Workers: 4})
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				qi := (g + i) % len(queries)
				o := QueryOpts{Explain: (g+i)%2 == 0}
				res, tr, err := s.QueryEx(queries[qi], o)
				if err != nil {
					errs <- err
					return
				}
				if !result.Equal(res, want[qi]) {
					errs <- fmt.Errorf("goroutine %d query %d (opts %+v): result differs from serial", g, qi, o)
					return
				}
				if o.Explain && tr == nil {
					errs <- fmt.Errorf("goroutine %d: explain returned no trace", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, s := newTestServer(t)

	if _, err := s.Query(DemoQuery(0.01)); err != nil {
		t.Fatal(err)
	}
	// A 20,000-row reply encodes in 2,048-row chunks on the pool, so the
	// workers log busy time.
	if resp, out := post(t, srv.URL+"/query", `{"plan": {"op": "scan", "table": "R", "cols": [0]}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("wide scan: status %d, body %v", resp.StatusCode, out)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`db_query_latency_seconds_count{outcome="ok"} 2`,
		`db_queries_total{outcome="ok"} 2`,
		"# TYPE db_query_latency_seconds histogram",
		"db_replication_lag_bytes",
		"db_checkpoint_seconds",
		"db_pool_workers 2",
		"db_inflight_queries 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line must parse as "name{labels} value".
	busy, busySeries := 0.0, 0
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparsable exposition line %q", line)
			continue
		}
		if strings.HasPrefix(fields[0], "db_pool_busy_seconds_total{") {
			v, _ := strconv.ParseFloat(fields[1], 64)
			busy += v
			busySeries++
		}
	}
	if busySeries != 2 || busy <= 0 {
		t.Errorf("db_pool_busy_seconds_total: %d worker series summing to %v s, want 2 summing above 0", busySeries, busy)
	}
}

func TestHTTPExplainQuery(t *testing.T) {
	srv, _ := newTestServer(t)
	body := strings.Replace(demoQueryJSON(10_000), `{"plan":`, `{"explain": true, "plan":`, 1)
	resp, out := post(t, srv.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %v", resp.StatusCode, out)
	}
	trace, ok := out["trace"].([]any)
	if !ok || len(trace) == 0 {
		t.Fatalf("explain response has no trace: %v", out)
	}
	op := trace[0].(map[string]any)
	for _, k := range []string{"op", "rowsIn", "rowsOut", "nanos"} {
		if _, ok := op[k]; !ok {
			t.Errorf("trace op missing %q: %v", k, op)
		}
	}

	// Without explain the trace key is absent.
	resp, out = post(t, srv.URL+"/query", demoQueryJSON(10_000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, ok := out["trace"]; ok {
		t.Fatal("untraced query response carries a trace")
	}
}

func TestXQueryIDAndContentType(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/stats", "/healthz", "/tables"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
		if id := resp.Header.Get("X-Query-Id"); id == "" {
			t.Errorf("%s response has no X-Query-Id", path)
		}
	}
	// IDs are unique per request.
	r1, _ := http.Get(srv.URL + "/stats")
	r1.Body.Close()
	r2, _ := http.Get(srv.URL + "/stats")
	r2.Body.Close()
	if a, b := r1.Header.Get("X-Query-Id"), r2.Header.Get("X-Query-Id"); a == b {
		t.Fatalf("two requests shared X-Query-Id %q", a)
	}
}

func TestSlowQueryLogging(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 2})
	defer s.Close()

	var buf bytes.Buffer
	var mu sync.Mutex
	s.SetLogger(slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil)))
	s.SetSlowQueryThreshold(time.Nanosecond) // everything is slow

	if _, err := s.Query(DemoQuery(0.01)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query line logged, got %q", logged)
	}
	if !strings.Contains(logged, "shape=") || !strings.Contains(logged, "trace=") {
		t.Fatalf("slow-query line lacks shape/trace: %q", logged)
	}
	rec := httptest.NewRecorder()
	s.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "db_slow_queries_total 1") {
		t.Fatal("db_slow_queries_total did not increment")
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestQueueWaitObserved holds the only admission slot while queries
// arrive, so they must queue, then checks the queue-wait histogram saw
// them.
func TestQueueWaitObserved(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 2, MaxInFlight: 1, QueueTimeout: 5 * time.Second})
	defer s.Close()
	release, err := s.admit()
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Query(DemoQuery(0.1))
			errs <- err
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); s.Stats().Queued == 0; {
		if time.Now().After(deadline) {
			release()
			t.Fatal("no query queued behind the held admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "db_query_queue_wait_seconds_count") {
		t.Fatal("queue-wait histogram missing from exposition")
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "db_query_queue_wait_seconds_count") {
			var n int64
			if _, err := fmt.Sscanf(line, "db_query_queue_wait_seconds_count %d", &n); err != nil || n == 0 {
				t.Fatalf("queue-wait count line %q, want > 0", line)
			}
		}
	}
}

// TestGracefulResultsDuringShutdown is a lightweight drain check at the
// service level: queries admitted before Close still complete.
func TestCloseDoesNotBreakInFlight(t *testing.T) {
	want := reference(t, testRows, DemoQuery(0.1))
	s := New(NewDemoDB(testRows), Config{Workers: 4})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		res, err := s.Query(DemoQuery(0.1))
		if err == nil && !result.Equal(res, want[0]) {
			err = fmt.Errorf("result differs after pool close")
		}
		done <- err
	}()
	<-started
	s.Close() // closed pool degrades to inline serial execution
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query did not finish after Close")
	}
}

// TestStatsMatchesMetrics pins that /stats and /metrics are two
// renderings of one registry: after reads, a failed query, an insert, a
// load and a checkpoint, with no request in flight, every counter and
// gauge series of the exposition is a /stats key with the same value,
// and every histogram's count and sum equal its _count and _sum. It
// also pins what that exercise must have counted.
func TestStatsMatchesMetrics(t *testing.T) {
	db, mgr, err := persist.Open(persist.Options{Dir: t.TempDir(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 2})
	s.AttachPersist(mgr, -1)
	defer mgr.Close()
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,v:float64"},
		strings.NewReader("1,1.5\n2,2.5\n3,3.5\n")); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Query(plan.Insert{Table: "ev", Rows: [][]storage.Word{
		{storage.EncodeInt(4), storage.EncodeFloat(4.5)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(plan.Scan{Table: "missing", Cols: []int{0}}); err == nil {
		t.Fatal("query on a missing table succeeded")
	}
	for i := 0; i < 3; i++ { // after the insert, whose commit empties the plan cache
		if _, err := s.Query(plan.Scan{Table: "ev", Cols: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_, pre := get(t, srv.URL+"/stats")
	if n := mgr.WALSize(); n == 0 || pre["db_wal_bytes"] != float64(n) {
		t.Errorf("/stats db_wal_bytes = %v before the checkpoint, WALSize() = %d", pre["db_wal_bytes"], n)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, stats := get(t, srv.URL+"/stats")

	histograms := map[string]bool{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, _ := strings.Cut(rest, " "); kind == "histogram" {
				histograms[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		if labels != "" {
			labels = "{" + labels
		}
		want, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("unparsable exposition line %q", line)
		}
		if base, field := histogramPart(name, histograms); base != "" {
			if field == "" {
				continue // buckets: /stats carries quantiles instead
			}
			key := base + labels
			seen[key] = true
			h, ok := stats[key].(map[string]any)
			if !ok || h[field] != want {
				t.Errorf("/stats %s.%s = %v, /metrics %s = %v", key, field, h[field], series, want)
			}
			continue
		}
		seen[series] = true
		if name == "served_uptime_seconds" {
			continue
		}
		if got, ok := stats[series]; !ok || got != want {
			t.Errorf("/stats %s = %v (present %v), /metrics says %v", series, got, ok, want)
		}
	}
	for key := range stats {
		if !seen[key] {
			t.Errorf("/stats key %s is not a /metrics series", key)
		}
	}

	for key, want := range map[string]float64{
		`db_queries_total{outcome="ok"}`:           4, // the insert and three scans
		`db_queries_total{outcome="error"}`:        1,
		`db_queries_total{outcome="rejected"}`:     0,
		"db_queries_queued_total":                  0,
		"db_inflight_queries":                      0,
		"db_result_rows_total":                     float64(3*4 + ins.Len()),
		"db_plan_cache_misses_total":               2, // the missing table and the first scan
		"db_plan_cache_hits_total":                 2,
		"db_plan_cache_entries":                    1,
		"db_plan_cache_shapes":                     1,
		"db_loads_total":                           1,
		"db_loaded_rows_total":                     3,
		"db_checkpoints_total":                     1,
		"db_persist_errors_total":                  0,
		`db_events_total{kind="checkpoint-begin"}`: 1,
	} {
		if got := stats[key]; got != want {
			t.Errorf("/stats %s = %v, want %v", key, got, want)
		}
	}
	for key, want := range map[string]float64{
		`db_query_latency_seconds{outcome="ok"}`:    4,
		`db_query_latency_seconds{outcome="error"}`: 1,
		"db_checkpoint_seconds":                     1,
	} {
		if h, _ := stats[key].(map[string]any); h["count"] != want {
			t.Errorf("/stats %s count = %v, want %v", key, h["count"], want)
		}
	}
	if n, _ := stats["db_wal_appended_bytes_total"].(float64); n <= 0 {
		t.Errorf("/stats db_wal_appended_bytes_total = %v, want > 0 after a load and an insert", n)
	}
	h, _ := stats["db_wal_fsync_seconds"].(map[string]any)
	if n, _ := h["count"].(float64); n <= 0 {
		t.Errorf("/stats db_wal_fsync_seconds = %v, want a positive count in fsync mode", h)
	}
	if stats["db_wal_bytes"] != float64(mgr.WALSize()) {
		t.Errorf("/stats db_wal_bytes = %v after the checkpoint, WALSize() = %d", stats["db_wal_bytes"], mgr.WALSize())
	}
}

// histogramPart splits a histogram sample name into its family and the
// /stats field it maps to: "count" for _count, "sum" for _sum, "" for a
// bucket. A name outside every histogram family returns base "".
func histogramPart(name string, histograms map[string]bool) (base, field string) {
	for suffix, f := range map[string]string{"_bucket": "", "_sum": "sum", "_count": "count"} {
		if b, ok := strings.CutSuffix(name, suffix); ok && histograms[b] {
			return b, f
		}
	}
	return "", ""
}
