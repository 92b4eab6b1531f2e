package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge reads %v", g.Value())
	}
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.001, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	bounds, cum, count, sum := h.snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le semantics: 0.01 lands in the first bucket.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], w, cum)
		}
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if math.Abs(sum-5.561) > 1e-9 {
		t.Fatalf("sum = %v, want 5.561", sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefBuckets)
	const workers, each = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*each {
		t.Fatalf("count = %d, want %d", got, workers*each)
	}
	if got, want := h.Sum(), float64(workers*each)*0.001; math.Abs(got-want) > want*1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("db_queries_total", "queries served", Labels{"outcome": "ok"}).Add(3)
	r.Counter("db_queries_total", "queries served", Labels{"outcome": "error"}).Add(1)
	r.GaugeFunc("db_inflight_queries", "currently executing", nil, func() float64 { return 2 })
	h := r.Histogram("db_query_latency_seconds", "end-to-end latency", []float64{0.01, 0.1}, nil)
	h.Observe(0.005)
	h.Observe(0.05)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP db_queries_total queries served\n",
		"# TYPE db_queries_total counter\n",
		`db_queries_total{outcome="ok"} 3`,
		`db_queries_total{outcome="error"} 1`,
		"# TYPE db_inflight_queries gauge\n",
		"db_inflight_queries 2",
		"# TYPE db_query_latency_seconds histogram\n",
		`db_query_latency_seconds_bucket{le="0.01"} 1`,
		`db_query_latency_seconds_bucket{le="0.1"} 2`,
		`db_query_latency_seconds_bucket{le="+Inf"} 2`,
		"db_query_latency_seconds_sum 0.055",
		"db_query_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Same (name, labels) re-registration returns the same collector.
	if c := r.Counter("db_queries_total", "", Labels{"outcome": "ok"}); c.Value() != 3 {
		t.Fatalf("re-registration returned a fresh counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := renderLabels(Labels{"a": `x"y\z` + "\n"}); got != `{a="x\"y\\z\n"}` {
		t.Fatalf("renderLabels = %q", got)
	}
}

func TestQueryTraceReport(t *testing.T) {
	tr := NewTrace([]OpProto{
		{Op: "group-by", Depth: 0},
		{Op: "scan", Detail: "table=R", Depth: 1},
		{Op: "join-build", Depth: 1, Static: true, RowsIn: 10, RowsOut: 10, Nanos: 123},
	}, 2)
	tr.Op(0).Add(5, 1, 1000)
	tr.Op(1).Add(100, 5, 1000)
	lane := tr.Op(1).Lane(1)
	lane.Rows, lane.Nanos, lane.Morsels, lane.Stolen = 5, 900, 2, 1

	rep := tr.Report()
	if len(rep) != 3 {
		t.Fatalf("report len = %d", len(rep))
	}
	if rep[0].Op != "group-by" || rep[0].RowsIn != 5 || rep[0].RowsOut != 1 {
		t.Fatalf("op0 = %+v", rep[0])
	}
	if rep[1].RowsIn != 100 || len(rep[1].Workers) != 1 || rep[1].Workers[0].Worker != 1 ||
		rep[1].Workers[0].Stolen != 1 {
		t.Fatalf("op1 = %+v", rep[1])
	}
	if !rep[2].Static || rep[2].Nanos != 123 {
		t.Fatalf("op2 = %+v", rep[2])
	}

	// nil-safety of the disarmed path
	var nilTrace *QueryTrace
	if nilTrace.Op(0) != nil || nilTrace.Report() != nil {
		t.Fatal("nil trace must be inert")
	}
	nilTrace.Op(0).Add(1, 1, 1) // must not panic
	if nilTrace.Op(0).Lane(0) != nil {
		t.Fatal("nil op lane must be nil")
	}
}

// TestHistogramCountMatchesInfBucket scrapes while observers run: every
// exposition must give _count equal to the le="+Inf" bucket, as
// Prometheus requires, and no quantile may leave the one bucket every
// observation lands in.
func TestHistogramCountMatchesInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race_seconds", "", nil, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.001)
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `race_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			} else if v, ok := strings.CutPrefix(line, "race_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("scrape %d: _count %s, +Inf bucket %s", i, count, inf)
		}
		if q := h.Snapshot().Quantile(1); q > 0.001 {
			t.Fatalf("scrape %d: max quantile %v, want <= 0.001", i, q)
		}
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total", "", Labels{"outcome": "ok"}).Add(3)
	r.Counter("q_total", "", Labels{"path": `a"b\c`}).Inc()
	r.GaugeFunc("nan", "", nil, func() float64 { return math.NaN() })
	r.GaugeFunc("inf", "", nil, func() float64 { return math.Inf(-1) })
	r.Gauge("g", "", nil).Set(2.5)
	r.Histogram("empty_seconds", "", nil, nil)
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1}, nil)
	h.Observe(0.005)
	h.Observe(0.05)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	for key, want := range map[string]any{
		`q_total{outcome="ok"}`:   3.0,
		`q_total{path="a\"b\\c"}`: 1.0,
		"nan":                     nil,
		"inf":                     nil,
		"g":                       2.5,
	} {
		if got, ok := out[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	empty := out["empty_seconds"].(map[string]any)
	for _, k := range []string{"count", "sum", "p50", "p95", "p99"} {
		if empty[k] != 0.0 {
			t.Errorf("empty histogram %s = %v, want 0", k, empty[k])
		}
	}
	lat := out["lat_seconds"].(map[string]any)
	if lat["count"] != 2.0 || lat["sum"] != 0.055 {
		t.Errorf("lat_seconds = %v, want count 2 and sum 0.055", lat)
	}
	if p50, p99 := lat["p50"].(float64), lat["p99"].(float64); p50 != h.Snapshot().Quantile(0.5) || p99 != h.Snapshot().Quantile(0.99) {
		t.Errorf("quantiles p50 %v p99 %v, want %v and %v", p50, p99, h.Snapshot().Quantile(0.5), h.Snapshot().Quantile(0.99))
	}
	if len(out) != 7 {
		t.Errorf("%d keys, want 7: %v", len(out), out)
	}

	sb.Reset()
	if err := NewRegistry().WriteJSON(&sb); err != nil || json.Unmarshal([]byte(sb.String()), &out) != nil {
		t.Fatalf("empty registry renders %q (err %v), want an empty object", sb.String(), err)
	}
}
