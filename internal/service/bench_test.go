package service

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/plan"
	"repro/internal/storage"
)

// BenchmarkServiceThroughput measures multi-client throughput on one
// shared worker pool: N closed-loop clients issue Fig-3-style queries
// (the selectivity mix below) through the full service path — admission,
// read lock, plan cache, pooled execution. b.N counts requests, so ns/op
// is per-query latency under that concurrency; the qps metric is the
// headline number recorded in BENCH_service.json.
//
// Setup asserts service results are row-identical to direct core.DB.Query
// on a pristine serial database before any timing begins.
func BenchmarkServiceThroughput(b *testing.B) {
	const rows = 200_000
	queries := []plan.Node{
		DemoQuery(0.0001),
		DemoQuery(0.01),
		DemoQuery(0.1),
	}
	want := reference(b, rows, queries...)

	s := New(NewDemoDB(rows), Config{Workers: 0, MaxInFlight: 32})
	defer s.Close()
	for i, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if !result.Equal(res, want[i]) {
			b.Fatalf("query %d: service result differs from direct core.DB.Query", i)
		}
	}

	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			g := LoadGen{Clients: clients, Requests: b.N, Queries: queries}
			b.ResetTimer()
			rep := g.Run(s)
			b.StopTimer()
			if rep.Errors > 0 {
				b.Fatalf("%d/%d requests failed", rep.Errors, rep.Requests)
			}
			b.ReportMetric(rep.QPS, "qps")
			b.ReportMetric(float64(rep.Rows)/float64(rep.Requests), "rows/op")
		})
	}
}

// BenchmarkServiceThroughputWithWriter is BenchmarkServiceThroughput
// with a background writer publishing MVCC versions the whole time: a
// goroutine commits 64-row batches into a side table at a steady pace
// while the closed-loop clients read. With snapshot reads the writer
// costs readers only the version-pointer indirection — the acceptance
// bar is reader qps within 2x of the no-writer run at the same client
// count. The commits/s metric reports the concurrent write rate.
func BenchmarkServiceThroughputWithWriter(b *testing.B) {
	const rows = 200_000
	queries := []plan.Node{
		DemoQuery(0.0001),
		DemoQuery(0.01),
		DemoQuery(0.1),
	}
	s := New(NewDemoDB(rows), Config{Workers: 0, MaxInFlight: 32})
	defer s.Close()
	if _, err := s.Load(LoadSpec{Table: "w", Format: "csv", CreateSpec: "v:int64"},
		strings.NewReader("")); err != nil {
		b.Fatal(err)
	}
	batch := make([][]storage.Word, 64)
	for i := range batch {
		batch[i] = []storage.Word{storage.EncodeInt(int64(i))}
	}

	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			stop := make(chan struct{})
			var commits atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Query(plan.Insert{Table: "w", Rows: batch}); err != nil {
						b.Error(err)
						return
					}
					commits.Add(1)
					time.Sleep(100 * time.Microsecond)
				}
			}()
			g := LoadGen{Clients: clients, Requests: b.N, Queries: queries}
			b.ResetTimer()
			rep := g.Run(s)
			b.StopTimer()
			close(stop)
			wg.Wait()
			if rep.Errors > 0 {
				b.Fatalf("%d/%d requests failed", rep.Errors, rep.Requests)
			}
			b.ReportMetric(rep.QPS, "qps")
			b.ReportMetric(float64(commits.Load())/rep.Elapsed.Seconds(), "commits/s")
		})
	}
}

// BenchmarkEncodeResult is the result-encoding layer on its own: a reply
// of the benchmark's `recent` shape (8 columns: four int64, two float64,
// two dictionary strings) streamed to io.Discard. rows=1 is a point
// lookup's reply, rows=50000 is wide_result's 2.7 MB; both run serially,
// and rows=50000/workers=2 encodes its waves on a two-worker pool.
func BenchmarkEncodeResult(b *testing.B) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, c := range []struct {
		name string
		rows int
		opt  par.Options
	}{
		{"rows=1", 1, par.Serial()},
		{"rows=50000", 50_000, par.Serial()},
		{"rows=50000/workers=2", 50_000, par.WithPool(pool)},
	} {
		res := recentLike(c.rows)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := streamResult(io.Discard, c.opt, res, 1, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendJSONFloat formats 1,024 floats per op: two-decimal prices
// and integers take the short-decimal path, full-precision doubles pay its
// one failed multiply-round-divide before strconv's shortest formatting.
func BenchmarkAppendJSONFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inputs := map[string]func() float64{
		"prices":   func() float64 { return float64(rng.Intn(100_000)) / 100 },
		"integers": func() float64 { return float64(rng.Intn(1_000_000)) },
		"full":     func() float64 { return rng.Float64() * 1000 },
	}
	for _, name := range []string{"prices", "integers", "full"} {
		vals := make([]float64, 1024)
		for i := range vals {
			vals[i] = inputs[name]()
		}
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, 32*len(vals))
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, f := range vals {
					buf = appendJSONFloat(buf, f)
				}
			}
		})
	}
}
