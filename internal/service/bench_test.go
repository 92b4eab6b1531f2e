package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
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

// BenchmarkScrape prices the periodic observability jobs, which run off
// the query path: render is one full Prometheus exposition of the
// service registry (a /metrics scrape), json is the same registry as one
// JSON object (a /stats read), sample is one metrics-history sweep (the
// sampler's whole per-interval cost). exposition-bytes and json-bytes
// are the sizes of the rendered scrapes.
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
	b.Run("json", func(b *testing.B) {
		var sb strings.Builder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sb.Reset()
			if err := s.Metrics().WriteJSON(&sb); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sb.Len()), "json-bytes")
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SampleHistory()
		}
	})
}

// ordersSpec is the benchmark's `orders` shape: 12 columns, eight int64,
// two float64 and two dictionary strings.
const ordersSpec = "id:int64,customer:int64,m1:int64,m2:int64,m3:int64,m4:int64,m5:int64,m6:int64,price:float64,discount:float64,status:string,region:string"

// ordersCSV renders rows of ordersSpec: ids in order, uniform customers
// and measures, two-decimal prices, 8 statuses and 64 regions.
func ordersCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 0, rows*64)
	for i := 0; i < rows; i++ {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rng.Int63n(1_000_000), 10)
		for m := 0; m < 6; m++ {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, rng.Int63n(1000), 10)
		}
		for f := 0; f < 2; f++ {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, float64(rng.Intn(100_000))/100, 'f', 2, 64)
		}
		buf = append(buf, ",st-"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(8)), 10)
		buf = append(buf, ",region-"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(64)), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// ordersNDJSON renders ordersCSV's rows as NDJSON arrays, the two string
// cells quoted.
func ordersNDJSON(rows int) []byte {
	csv := ordersCSV(rows)
	buf := make([]byte, 0, len(csv)+rows*8)
	for _, line := range bytes.Split(bytes.TrimSuffix(csv, []byte("\n")), []byte("\n")) {
		f := bytes.Split(line, []byte(","))
		buf = append(append(buf, '['), bytes.Join(f[:10], []byte(","))...)
		buf = fmt.Appendf(buf, ",%q,%q]\n", f[10], f[11])
	}
	return buf
}

// BenchmarkServiceLoad is the bulk-load path end to end below HTTP: a
// 200,000-row CSV of the orders shape streamed through Load into a fresh
// row table, reported as rows/s. memory loads into a service without
// persistence; wal attaches a persist.Manager (fsync off), so every
// batch's WAL append lands on the committer too; ndjson is memory over the
// same rows as NDJSON. workers=1 parses on the caller; workers=2 parses
// each block's batches on a two-worker pool.
func BenchmarkServiceLoad(b *testing.B) {
	const rows = 200_000
	csv, ndjson := ordersCSV(rows), ordersNDJSON(rows)
	for _, c := range []struct {
		name, format string
		data         []byte
		durable      bool
	}{
		{"memory", "csv", csv, false},
		{"wal", "csv", csv, true},
		{"ndjson", "ndjson", ndjson, false},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db, mgr := core.Open(), (*persist.Manager)(nil)
					if c.durable {
						var err error
						if db, mgr, err = persist.Open(persist.Options{Dir: b.TempDir()}); err != nil {
							b.Fatal(err)
						}
					}
					s := New(db, Config{Workers: workers})
					if mgr != nil {
						s.AttachPersist(mgr, -1)
					}
					b.StartTimer()
					res, err := s.Load(LoadSpec{Table: "orders", Format: c.format, CreateSpec: ordersSpec}, bytes.NewReader(c.data))
					b.StopTimer()
					if err != nil || res.Rows != rows {
						b.Fatalf("load: %+v, %v", res, err)
					}
					s.Close()
					if mgr != nil {
						mgr.Close()
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// BenchmarkLoadStages times the two stages of BenchmarkServiceLoad/memory
// apart: read is the caller's block reader turning the 200,000 rows into
// batches, commit is the committer's writes of those batches. At
// workers=2 read parses each block's batches on a two-worker pool and
// commit clips on it. Load overlaps the stages, so its time is about the
// larger of the two when the CPUs suffice: stage balance, not their sum,
// sets it.
func BenchmarkLoadStages(b *testing.B) {
	const rows = 200_000
	data := ordersCSV(rows)
	attrs, err := persist.ParseSchemaSpec(ordersSpec)
	if err != nil {
		b.Fatal(err)
	}
	// read streams data through a block reader on opt, handing each batch
	// to use.
	read := func(tb testing.TB, opt par.Options, use func(*persist.Batch)) {
		br := persist.NewCSVReader(bytes.NewReader(data), attrs)
		br.SetParOptions(opt)
		for {
			batch, err := br.ReadBatch(loadBatchRows)
			if err == io.EOF {
				return
			}
			if err != nil {
				tb.Fatal(err)
			}
			use(batch)
		}
	}
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		defer pool.Close()
		opt := par.WithPool(pool)
		b.Run(fmt.Sprintf("read/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				read(b, opt, (*persist.Batch).Release) // as the committer does
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(fmt.Sprintf("commit/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var batches []*persist.Batch
				read(b, opt, func(batch *persist.Batch) { batches = append(batches, batch) })
				s := New(core.Open(), Config{Workers: workers})
				if _, _, err := s.loadTarget(LoadSpec{Table: "orders", CreateSpec: ordersSpec}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				loaded := 0
				for j, batch := range batches {
					if err := s.applyLoadBatch("orders", batch, j == len(batches)-1, loaded, ""); err != nil {
						b.Fatal(err)
					}
					loaded += batch.Rows()
					batch.Release()
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkRestart is a clock on recovery: it times persist.Open of a
// data directory holding a snapshot of a 2M-row table with a hash index
// on id plus a WAL tail of 10,000 one-row inserts, then a service over
// the recovered database answering its first point lookup (a row from
// the tail) correctly.
func BenchmarkRestart(b *testing.B) {
	const rows, tail = 2_000_000, 10_000
	dir := b.TempDir()
	fresh, mgr, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	svc := New(fresh, Config{Workers: 1})
	svc.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if _, err := svc.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,grp:int64"},
		strings.NewReader(csvRows(0, rows))); err != nil {
		b.Fatal(err)
	}
	svc.Unwrap().CreateHashIndex("ev", 0)
	svc.AttachPersist(mgr, -1)
	if _, err := svc.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for id := rows; id < rows+tail; id++ {
		if err := mgr.LogInsertWords("ev", 2, []storage.Word{storage.EncodeInt(int64(id)), storage.EncodeInt(int64(id % 7))}); err != nil {
			b.Fatal(err)
		}
	}
	svc.Close()
	if err := mgr.Close(); err != nil {
		b.Fatal(err)
	}

	last := storage.EncodeInt(rows + tail - 1)
	lookup := plan.Scan{Table: "ev", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: last}, Cols: []int{0, 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, mgr, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		s := New(db, Config{Workers: 1})
		res, err := s.Query(lookup)
		if err != nil || res.Len() != 1 || res.Rows[0][0] != last || db.Catalog().Index("ev", 0) == nil {
			b.Fatalf("first lookup after restart: %v rows, %v", res, err)
		}
		b.StopTimer()
		s.Close()
		mgr.Close()
		b.StartTimer()
	}
}
