package service

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/layout"
	"repro/internal/plan"
	"repro/internal/workload"
)

// demoColReads indexes a table snapshot's column reads by attribute name.
func demoColReads(t *testing.T, th workload.TableHeat) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, c := range th.Cols {
		out[c.Name] = c.Reads
	}
	return out
}

func TestCaptureCountsThroughService(t *testing.T) {
	const rows = 2000
	s := New(NewDemoDB(rows), Config{Workers: 1})
	defer s.Close()
	q := DemoQuery(0.01)
	for i := 0; i < 3; i++ {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.WorkloadSnapshot()
	if len(rep.Tables) != 1 || rep.Tables[0].Table != "R" {
		t.Fatalf("snapshot tables = %+v", rep.Tables)
	}
	th := rep.Tables[0]
	if th.Queries != 3 {
		t.Errorf("Queries = %d, want 3", th.Queries)
	}
	if th.RowsScanned != 3*rows {
		t.Errorf("RowsScanned = %d, want %d", th.RowsScanned, 3*rows)
	}
	reads := demoColReads(t, th)
	// The demo query reads A (filter) and B..E (projected); F.. stay cold.
	for _, hot := range []string{"A", "B", "C", "D", "E"} {
		if reads[hot] != 3 {
			t.Errorf("column %s reads = %d, want 3", hot, reads[hot])
		}
	}
	for _, cold := range []string{"F", "G", "P"} {
		if reads[cold] != 0 {
			t.Errorf("cold column %s reads = %d, want 0", cold, reads[cold])
		}
	}
	if len(rep.TopShapes) != 1 || rep.TopShapes[0].Count != 3 {
		t.Errorf("shapes = %+v", rep.TopShapes)
	}
}

// TestConstantSweepCollapsesShapes asserts the capture side of parameter
// sweeps: distinct constants compile distinct cache entries but one
// normalized shape, so the ring counts the sweep as one hot query.
func TestConstantSweepCollapsesShapes(t *testing.T) {
	s := New(NewDemoDB(500), Config{Workers: 1})
	defer s.Close()
	for i := 1; i <= 5; i++ {
		if _, err := s.Query(DemoQuery(float64(i) / 100)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.WorkloadSnapshot()
	if rep.ShapesTracked != 1 {
		t.Errorf("shapes tracked = %d, want 1 (constants normalize together)", rep.ShapesTracked)
	}
	if rep.TopShapes[0].Count != 5 {
		t.Errorf("top shape count = %d, want 5", rep.TopShapes[0].Count)
	}
	if entries, shapes := planCacheCounts(s); entries != 5 || shapes != 1 {
		t.Errorf("cache entries/shapes = %d/%d, want 5/1", entries, shapes)
	}
}

// TestAdvisorMatchesOfflineOptimizer is the acceptance-criteria pin: the
// advice computed from the live captured mix must recommend the same
// layout, at the same BPi cost, as an offline optimizer run over the
// equivalent declared workload.
func TestAdvisorMatchesOfflineOptimizer(t *testing.T) {
	const rows = 2000
	s := New(NewDemoDB(rows), Config{Workers: 1})
	defer s.Close()

	// A skewed mix of two structurally distinct queries: the narrow demo
	// aggregate (hot) and a wide two-column scan (cool).
	hot, cool := DemoQuery(0.01), plan.Scan{Table: "R", Cols: []int{8, 9}}
	for i := 0; i < 7; i++ {
		if _, err := s.Query(hot); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Query(cool); err != nil {
			t.Fatal(err)
		}
	}

	rep := s.Advise()
	if rep.Queries != 9 || rep.Shapes != 2 {
		t.Fatalf("advisor saw %d queries over %d shapes, want 9 over 2", rep.Queries, rep.Shapes)
	}
	if len(rep.Advice) != 1 {
		t.Fatalf("advice = %+v, want exactly table R", rep.Advice)
	}
	a := rep.Advice[0]
	if a.Drift <= 1 {
		t.Errorf("skewed mix over the NSM demo table should drift > 1, got %v", a.Drift)
	}

	// Offline: declare the equivalent workload (same plans, same observed
	// frequencies, capture order) and run the optimizer directly.
	db := s.Unwrap()
	declared := (&workload.Workload{Name: "declared"}).Add("hot", hot, 7).Add("cool", cool, 2)
	est := costmodel.NewEstimator(db.Catalog(), db.Geometry())
	current, optimal, best := layout.NewOptimizer(est).Drift("R", declared)
	if a.Recommended != best.String() {
		t.Errorf("live advice recommends %s, offline optimizer picks %s", a.Recommended, best)
	}
	if a.OptimalCost != optimal || a.CurrentCost != current {
		t.Errorf("live costs (%v, %v) != offline costs (%v, %v)",
			a.CurrentCost, a.OptimalCost, current, optimal)
	}

	// Determinism across advisor runs on an unchanged mix.
	if again := s.Advise(); again.Advice[0] != a {
		t.Errorf("advice changed without new traffic: %+v vs %+v", a, again.Advice[0])
	}
}

func TestWorkloadAndAdvisorHTTP(t *testing.T) {
	s := New(NewDemoDB(1000), Config{Workers: 1})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Query(DemoQuery(0.05)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wl WorkloadReport
	getJSON(t, srv.URL+"/workload", &wl)
	if len(wl.Tables) != 1 || wl.Tables[0].Queries != 4 {
		t.Errorf("/workload tables = %+v", wl.Tables)
	}
	if reads := demoColReads(t, wl.Tables[0]); reads["A"] != 4 || reads["B"] != 4 {
		t.Errorf("/workload col reads = %v", reads)
	}
	if wl.ShapesTracked != 1 || len(wl.TopShapes) != 1 || wl.TopShapes[0].Count != 4 {
		t.Errorf("/workload shapes = %+v (tracked %d)", wl.TopShapes, wl.ShapesTracked)
	}
	if len(wl.TopShapes[0].Plan) == 0 {
		t.Error("/workload shape has no normalized plan payload")
	}

	var adv struct {
		Advice []struct {
			Table       string  `json:"table"`
			Layout      string  `json:"layout"`
			Recommended string  `json:"recommended"`
			Drift       float64 `json:"drift"`
		} `json:"advice"`
		Queries int64 `json:"queries"`
		Shapes  int   `json:"shapes"`
		Micros  int64 `json:"micros"`
	}
	getJSON(t, srv.URL+"/advisor", &adv)
	if adv.Queries != 4 || adv.Shapes != 1 || len(adv.Advice) != 1 {
		t.Fatalf("/advisor = %+v", adv)
	}
	if adv.Advice[0].Table != "R" || adv.Advice[0].Drift < 1 {
		t.Errorf("/advisor advice = %+v", adv.Advice[0])
	}

	// Metrics: column heat, drift gauge (set by the /advisor run above),
	// shape gauges, build info and uptime must all expose.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`db_column_reads_total{column="A",table="R"} 4`,
		`db_table_queries_total{table="R"} 4`,
		`db_table_rows_scanned_total{table="R"} 4000`,
		`db_layout_drift_ratio{table="R"}`,
		`db_layout_advisor_runs_total 1`,
		`db_plan_cache_shapes 1`,
		`db_plan_cache_top_shape_entries 1`,
		`served_build_info{goversion="go`,
		`served_uptime_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Advisory-only: the advisor run must not have touched the layout.
	if got := s.Tables()[0].Layout; got != "row" {
		t.Errorf("advisor changed the layout to %s — it must be advisory-only", got)
	}
	if got := s.metrics.relayouts.Value(); got != 0 {
		t.Errorf("advisor triggered %d relayouts — it must be advisory-only", got)
	}
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// BenchmarkCaptureOverhead isolates the capture layer's two costs: the
// footprint resolution a plan-cache miss pays once per compilation, and
// the Record every execution pays.
func BenchmarkCaptureOverhead(b *testing.B) {
	q := DemoQuery(0.1)
	s := New(NewDemoDB(10_000), Config{Workers: 0})
	defer s.Close()
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	key, err := planKey(q)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		snap := s.core().Snapshot()
		defer snap.Release()
		cat := snap.Catalog()
		for i := 0; i < b.N; i++ {
			shape, shapeJSON := shapeOf(q, key)
			accs := exec.CollectAccesses(q, cat)
			s.capture.Resolve(cat, accs, string(shape[:]), shapeJSON, q)
		}
	})
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		db := s.core()
		snap := db.Snapshot()
		entry := s.lookup(q, cacheKey{core: db.ID(), epoch: snap.Epoch(), plan: key})
		snap.Release()
		for i := 0; i < b.N; i++ {
			entry.fp.Record()
		}
	})
}

// skewedCapture returns a service whose capture holds a skewed mix of two
// shapes over a 50,000-row demo table: the selective query 21 times, the
// wide one twice.
func skewedCapture(b *testing.B) *DB {
	s := New(NewDemoDB(50_000), Config{Workers: 1})
	// Advise runs in a loop below; silence the drift warning it would
	// otherwise log on every iteration.
	s.SetDriftWarnRatio(math.Inf(1))
	hot, cool := DemoQuery(0.01), DemoQuery(0.5)
	for i := 0; i < 21; i++ {
		if _, err := s.Query(hot); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Query(cool); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkWorkloadSnapshot is the read side of GET /workload: copying the
// captured heat and the shape ring.
func BenchmarkWorkloadSnapshot(b *testing.B) {
	s := skewedCapture(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WorkloadSnapshot()
	}
}

// BenchmarkAdvise is one advisor pass (GET /advisor): captured mix ->
// workload declaration -> BPi optimizer per touched table.
func BenchmarkAdvise(b *testing.B) {
	s := skewedCapture(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Advise(); len(rep.Advice) != 1 {
			b.Fatalf("advice = %+v, want table R", rep.Advice)
		}
	}
}
