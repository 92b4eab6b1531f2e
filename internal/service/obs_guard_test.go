package service

import (
	"testing"
	"time"

	"repro/internal/exec/result"
)

// TestDisarmedTraceOverheadGuard bounds what observability costs a query
// that is not being observed: the full service path with tracing
// disarmed (nil-trace branches, latency histograms, slow-query check)
// must stay within 2% of the pre-observability request path — replicated
// below from the same primitives (key, admission, read lock, cache
// lookup, the registry counters the service path bumps) minus every
// observability addition. The
// comparison interleaves min-of-N rounds so scheduling noise and thermal
// drift hit both sides alike, and retries before failing — a timing
// assertion, not a proof, but it catches a per-row cost sneaking into
// the disarmed path. The baseline also omits the workload capture's
// per-execution Footprint.Record, so this guard prices that cost too: with
// one cached execution path, it is the only per-request capture cost left.
func TestDisarmedTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race (instrumented timings are not representative)")
	}
	const rows = 100_000
	q := DemoQuery(0.1)
	s := New(NewDemoDB(rows), Config{Workers: 0, MaxInFlight: 8})
	defer s.Close()
	// The event journal is always on, and the history sampler runs hot
	// here: both must be invisible to the query path (the journal only
	// costs when an event fires; history is a pull from its own goroutine).
	s.StartHistory(time.Second)
	if _, err := s.Query(q); err != nil { // warm: compile + cache the plan
		t.Fatal(err)
	}

	const iters = 20
	timeOnce := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return time.Since(start)
	}
	// baseline is the seed request path: hash the plan, admit, execute
	// the cached compiled form under the read lock, bump the same
	// registry counters the service path bumps. Everything the observability change added — e2e
	// timestamps, histogram observes, the armed check, trace threading,
	// the capture's Record — is deliberately absent.
	baseline := func() {
		bkey, err := planKey(q)
		if err != nil {
			t.Fatal(err)
		}
		release, err := s.admit()
		if err != nil {
			t.Fatal(err)
		}
		res := func() *result.Set {
			db := s.core()
			snap := db.Snapshot()
			defer snap.Release()
			return s.lookup(q, cacheKey{core: db.ID(), epoch: snap.Epoch(), plan: bkey}).prep.Exec()
		}()
		s.metrics.queries.Inc()
		s.metrics.rows.Add(int64(res.Len()))
		release()
	}
	viaService := func() {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	const (
		rounds   = 7
		attempts = 5
		budget   = 1.02
	)
	for a := 1; ; a++ {
		best := [2]time.Duration{1 << 62, 1 << 62}
		for r := 0; r < rounds; r++ {
			if d := timeOnce(baseline); d < best[0] {
				best[0] = d
			}
			if d := timeOnce(viaService); d < best[1] {
				best[1] = d
			}
		}
		ratio := float64(best[1]) / float64(best[0])
		if ratio <= budget {
			t.Logf("attempt %d: service/baseline = %.4f (baseline %v, service %v per %d queries)",
				a, ratio, best[0], best[1], iters)
			return
		}
		if a == attempts {
			t.Fatalf("disarmed service path is %.2f%% over the pre-observability baseline (budget 2%%): baseline %v, service %v per %d queries",
				(ratio-1)*100, best[0], best[1], iters)
		}
	}
}

// BenchmarkTraceOverhead compares the same cached query disarmed, armed
// with a fresh trace per execution, and through the explain service
// path — ns/op differences are what EXPLAIN ANALYZE costs.
func BenchmarkTraceOverhead(b *testing.B) {
	const rows = 100_000
	q := DemoQuery(0.1)
	s := New(NewDemoDB(rows), Config{Workers: 0, MaxInFlight: 8})
	defer s.Close()
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	key, err := planKey(q)
	if err != nil {
		b.Fatal(err)
	}
	db := s.core()
	snap := db.Snapshot()
	entry := s.lookup(q, cacheKey{core: db.ID(), epoch: snap.Epoch(), plan: key})
	snap.Release()
	prep := entry.prep

	b.Run("disarmed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prep.Exec()
		}
	})
	b.Run("armed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := prep.NewTrace()
			prep.ExecTraced(tr)
		}
	})
	b.Run("service-explain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.QueryEx(q, QueryOpts{Explain: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
