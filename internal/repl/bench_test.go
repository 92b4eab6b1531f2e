package repl

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/storage"
)

// shipWAL logs a create-table plus rows/perRecord insert records and
// returns the committed WAL bytes (the stream a follower would receive)
// and the manager's epoch.
func shipWAL(b *testing.B, rows, perRecord int, coalesce bool) ([]byte, uint64) {
	b.Helper()
	db, mgr, err := persist.Open(persist.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	rel := storage.NewRelation(storage.NewSchema("t",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "grp", Type: storage.Int64},
		storage.Attribute{Name: "val", Type: storage.Int64},
	), storage.NSM(3))
	db.AddTable(rel)
	if err := mgr.LogCreateTable(db.Catalog(), "t"); err != nil {
		b.Fatal(err)
	}
	if coalesce {
		if err := mgr.SetCoalesce(time.Hour, 4096); err != nil {
			b.Fatal(err)
		}
	}
	batch := make([][]storage.Word, 0, perRecord)
	for i := 0; i < rows; i++ {
		batch = append(batch, []storage.Word{
			storage.EncodeInt(int64(i)), storage.EncodeInt(int64(i % 7)), storage.EncodeInt(int64(i % 100)),
		})
		if len(batch) == perRecord {
			if err := mgr.LogInsert("t", 3, batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := mgr.LogInsert("t", 3, batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := mgr.Flush(); err != nil {
		b.Fatal(err)
	}
	tail, err := mgr.TailRead(mgr.Epoch(), 0, 1<<31-1)
	if err != nil {
		b.Fatal(err)
	}
	return tail.Data, mgr.Epoch()
}

// BenchmarkReplication measures the two sides of log shipping: apply
// throughput on a replica (rows/s through ApplyReplicated, which is the
// recovery replay path under the service write lock, over a stream of
// 4,096-row records) and ship bandwidth (WAL bytes per row for single-row
// inserts, with and without coalescing).
func BenchmarkReplication(b *testing.B) {
	const rows = 100_000

	b.Run("apply", func(b *testing.B) {
		chunk, epoch := shipWAL(b, rows, 4096, false)
		b.SetBytes(int64(len(chunk)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc := service.New(core.Open(), service.Config{Workers: 1})
			consumed, _, err := svc.ApplyReplicated(chunk, epoch)
			if err != nil || consumed != len(chunk) {
				b.Fatalf("apply consumed %d/%d: %v", consumed, len(chunk), err)
			}
			svc.Close()
		}
		b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		b.ReportMetric(float64(len(chunk))/rows, "bytes/row")
	})

	for _, c := range []struct {
		name     string
		coalesce bool
	}{{"ship-single-row", false}, {"ship-coalesced", true}} {
		b.Run(c.name, func(b *testing.B) {
			var bytesTotal int64
			rowsTotal := 0
			for i := 0; i < b.N; i++ {
				n := rows / 10
				chunk, _ := shipWAL(b, n, 1, c.coalesce)
				bytesTotal += int64(len(chunk))
				rowsTotal += n
			}
			b.ReportMetric(float64(bytesTotal)/float64(rowsTotal), "bytes/row")
		})
	}
}
