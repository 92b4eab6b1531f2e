package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/storage"
)

// Ingest measures the durability subsystem (not a paper figure — the
// paper's layouts live in RAM; this experiment prices keeping them):
// streaming CSV bulk-load throughput into row and column layouts,
// snapshot write/read bandwidth for the resulting catalog, and WAL
// append+replay rates.
func Ingest(opt Options) *Report {
	rows := 1_000_000
	if opt.Quick {
		rows = 100_000
	}

	rep := &Report{
		ID:     "ingest",
		Title:  "durable storage: bulk load, snapshot and WAL throughput",
		Header: []string{"stage", "rows", "bytes", "time", "throughput"},
	}

	// CSV corpus: int key, low-cardinality string, float.
	var sb strings.Builder
	sb.Grow(rows * 24)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,name-%d,%d.%02d\n", i, i%1000, i%100, i%100)
	}
	body := sb.String()
	schema := func() *storage.Schema {
		return storage.NewSchema("ingest",
			storage.Attribute{Name: "id", Type: storage.Int64},
			storage.Attribute{Name: "name", Type: storage.String},
			storage.Attribute{Name: "score", Type: storage.Float64},
		)
	}

	var loaded *storage.Relation
	for _, layout := range []struct {
		name string
		l    storage.Layout
	}{{"row", storage.NSM(3)}, {"column", storage.DSM(3)}} {
		rel := storage.NewRelation(schema(), layout.l)
		start := time.Now()
		n, err := persist.LoadBatches(rel, persist.NewCSVReader(strings.NewReader(body), 3), 4096,
			func(batch [][]storage.Word) error {
				for _, r := range batch {
					rel.AppendRow(r)
				}
				return nil
			})
		if err != nil {
			panic(err)
		}
		took := time.Since(start)
		rep.Rows = append(rep.Rows, []string{
			"csv-load/" + layout.name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(body)),
			fmtDur(took), fmt.Sprintf("%.2f Mrows/s", float64(n)/took.Seconds()/1e6),
		})
		loaded = rel
	}

	db := core.Open()
	db.AddTable(loaded)
	db.CreateHashIndex("ingest", 0)

	var buf bytes.Buffer
	start := time.Now()
	n, err := persist.WriteSnapshot(&buf, db, 0)
	if err != nil {
		panic(err)
	}
	wTook := time.Since(start)
	rep.Rows = append(rep.Rows, []string{
		"snapshot-write", fmt.Sprintf("%d", rows), fmt.Sprintf("%d", n),
		fmtDur(wTook), fmt.Sprintf("%.1f MB/s", float64(n)/wTook.Seconds()/1e6),
	})

	start = time.Now()
	if _, _, err := persist.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		panic(err)
	}
	rTook := time.Since(start)
	rep.Rows = append(rep.Rows, []string{
		"snapshot-read", fmt.Sprintf("%d", rows), fmt.Sprintf("%d", n),
		fmtDur(rTook), fmt.Sprintf("%.1f MB/s", float64(n)/rTook.Seconds()/1e6),
	})

	if dir, err := os.MkdirTemp("", "ingest-wal-*"); err == nil {
		defer os.RemoveAll(dir)
		wdb, mgr, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			panic(err)
		}
		wdb.AddTable(storage.NewRelation(schema(), storage.NSM(3)))
		if err := mgr.LogCreateTable(wdb.Catalog(), "ingest"); err != nil {
			panic(err)
		}
		const perBatch = 4096
		batch := make([][]storage.Word, perBatch)
		for i := range batch {
			batch[i] = []storage.Word{
				storage.EncodeInt(int64(i)), storage.Null, storage.EncodeFloat(float64(i)),
			}
		}
		walRows := 0
		start = time.Now()
		for walRows+perBatch <= rows/4 {
			for _, r := range batch {
				wdb.Catalog().Table("ingest").AppendRow(r)
			}
			if err := mgr.LogInsert("ingest", 3, batch); err != nil {
				panic(err)
			}
			walRows += perBatch
		}
		aTook := time.Since(start)
		walBytes := mgr.WALSize()
		mgr.Close()
		rep.Rows = append(rep.Rows, []string{
			"wal-append", fmt.Sprintf("%d", walRows), fmt.Sprintf("%d", walBytes),
			fmtDur(aTook), fmt.Sprintf("%.2f Mrows/s", float64(walRows)/aTook.Seconds()/1e6),
		})
		start = time.Now()
		_, mgr2, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			panic(err)
		}
		pTook := time.Since(start)
		mgr2.Close()
		rep.Rows = append(rep.Rows, []string{
			"wal-replay", fmt.Sprintf("%d", walRows), fmt.Sprintf("%d", walBytes),
			fmtDur(pTook), fmt.Sprintf("%.2f Mrows/s", float64(walRows)/pTook.Seconds()/1e6),
		})
	}

	rep.Notes = append(rep.Notes,
		"csv-load = parse + dictionary encode + append, single-threaded, batch 4096",
		"snapshot includes the hash index definition; index structures rebuild on read",
		"wal-append commits one batch of 4096 rows per record (group commit, no fsync)")
	return rep
}
