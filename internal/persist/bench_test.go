package persist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// BenchmarkSnapshotRoundTrip measures snapshot encode+decode throughput
// (b.SetBytes = snapshot size, so ns/op yields MB/s).
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	db := buildTestDB(b, 100_000)
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, db, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteSnapshot(&buf, db, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWrite isolates the encode side.
func BenchmarkSnapshotWrite(b *testing.B) {
	db := buildTestDB(b, 100_000)
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, db, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteSnapshot(&buf, db, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCSV builds a CSV body with rows of (int, string, float).
func benchCSV(rows int) string {
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,name-%d,%d.%02d\n", i, i%1000, i%100, i%100)
	}
	return sb.String()
}

// BenchmarkBulkLoad measures the streaming CSV ingest path (parse +
// dictionary encode + append) into a row and a column layout; rows/sec is
// reported as a metric and bytes/sec via SetBytes.
func BenchmarkBulkLoad(b *testing.B) {
	const rows = 100_000
	body := benchCSV(rows)
	schema := storage.NewSchema("bench",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "name", Type: storage.String},
		storage.Attribute{Name: "score", Type: storage.Float64},
	)
	for _, l := range []struct {
		name   string
		layout storage.Layout
	}{{"row", storage.NSM(3)}, {"column", storage.DSM(3)}} {
		b.Run(l.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rel := storage.NewRelation(schema, l.layout)
				n, err := loadAll(rel, NewCSVReader(strings.NewReader(body), 3), 4096)
				if err != nil {
					b.Fatal(err)
				}
				if n != rows {
					b.Fatalf("loaded %d rows", n)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkWALAppendReplay measures logging and replaying insert batches.
func BenchmarkWALAppendReplay(b *testing.B) {
	const batches, perBatch = 50, 1000
	dir := b.TempDir()
	rows := make([][]storage.Word, perBatch)
	for i := range rows {
		rows[i] = row2(int64(i), int64(i*10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, m, err := Open(Options{Dir: dir, Fresh: true})
		if err != nil {
			b.Fatal(err)
		}
		newIntTable(db, "t")
		if err := m.LogCreateTable(db.Catalog(), "t"); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < batches; j++ {
			if err := m.LogInsert("t", 2, rows); err != nil {
				b.Fatal(err)
			}
		}
		m.Close()
		_, m2, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		m2.Close()
	}
	b.ReportMetric(float64(batches*perBatch)*float64(b.N)/b.Elapsed().Seconds(), "replayed-rows/s")
}
