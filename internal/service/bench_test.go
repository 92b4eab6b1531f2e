package service

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec/par"
)

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

// BenchmarkScrape prices the two periodic observability jobs, which run
// off the query path: render is one full Prometheus exposition of the
// service registry (a /metrics scrape), sample is one metrics-history
// sweep (the sampler's whole per-interval cost). exposition-bytes is the
// size of the rendered scrape.
func BenchmarkScrape(b *testing.B) {
	s := New(NewDemoDB(10_000), Config{Workers: 1})
	defer s.Close()
	if _, err := s.Query(DemoQuery(0.1)); err != nil {
		b.Fatal(err)
	}
	b.Run("render", func(b *testing.B) {
		var sb strings.Builder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sb.Reset()
			if err := s.Metrics().WritePrometheus(&sb); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sb.Len()), "exposition-bytes")
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SampleHistory()
		}
	})
}
