package service

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Bulk ingestion: the streaming counterpart of plan.Insert. Rows arrive
// as CSV or NDJSON, are parsed outside any lock, and enter the table
// batch-by-batch: each batch is one write (write.go) — dictionary
// encoding, WAL logging, copy-on-write insert and atomic publish under the
// commit mutex — so a gigabyte load publishes one version per batch,
// concurrent queries run lock-free on whichever version they pinned, and
// only other writers ever wait on a batch.

// loadBatchRows is the ingest batch size: large enough to amortize
// commit-mutex acquisition and WAL commit, small enough to bound how
// long other writers wait.
const loadBatchRows = 4096

// LoadSpec describes one bulk load.
type LoadSpec struct {
	// Table is the target table name.
	Table string
	// Format is "csv" or "ndjson".
	Format string
	// CreateSpec, when non-empty, creates the table first from a
	// "name:type,..." column list. Required if the table does not exist.
	CreateSpec string
	// Layout picks the created table's partitioning: "row" (default) or
	// "column".
	Layout string
	// QueryID, when non-empty, stamps the load's WAL commits (create and
	// every batch) with the request's correlation id for write tracing.
	QueryID string
}

// LoadResult reports a finished bulk load.
type LoadResult struct {
	Table   string `json:"table"`
	Rows    int    `json:"rows"`
	Created bool   `json:"created"`
}

// Load streams rows from r into a table. Creating the table (when
// CreateSpec is set) is DDL and is WAL-logged; every ingested batch is
// its own write, logged like an insert, so a crash mid-load recovers
// every committed batch, and a node fenced or demoted mid-stream stops
// the load at the next batch. Queries run concurrently with the load and
// see the table grow batch-wise.
func (s *DB) Load(spec LoadSpec, r io.Reader) (LoadResult, error) {
	res := LoadResult{Table: spec.Table}
	if spec.Table == "" {
		return res, errors.New("service: load needs a table name")
	}
	if spec.Format != "csv" && spec.Format != "ndjson" {
		return res, fmt.Errorf("service: load format %q (want csv or ndjson)", spec.Format)
	}

	width, created, err := s.loadTarget(spec)
	if err != nil {
		return res, err
	}
	res.Created = created

	var br persist.BatchReader
	if spec.Format == "csv" {
		br = persist.NewCSVReader(r, width)
	} else {
		br = persist.NewNDJSONReader(r, width)
	}

	for {
		raw, err := br.ReadBatch(loadBatchRows)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		if err := s.applyLoadBatch(spec.Table, raw, spec.QueryID); err != nil {
			return res, err
		}
		res.Rows += len(raw)
	}
	s.stats.loads.Add(1)
	s.stats.loadedRows.Add(int64(res.Rows))
	return res, nil
}

// loadTarget resolves (or creates) the target table and returns its
// width. A create is a write of its own: the table is WAL-logged, then
// added and published — a logging failure leaves the catalog without the
// table, so the load is safe to retry.
func (s *DB) loadTarget(spec LoadSpec) (width int, created bool, err error) {
	err = s.write(spec.QueryID, func(tx *core.WriteTxn, log logFn) error {
		cat := tx.Catalog()
		if cat.Has(spec.Table) {
			if spec.CreateSpec != "" {
				return fmt.Errorf("service: table %q already exists, drop the create spec", spec.Table)
			}
			width = cat.Table(spec.Table).Schema.Width()
			return nil
		}
		if spec.CreateSpec == "" {
			return fmt.Errorf("service: unknown table %q (pass a create spec to create it)", spec.Table)
		}
		attrs, err := persist.ParseSchemaSpec(spec.CreateSpec)
		if err != nil {
			return err
		}
		var layout storage.Layout
		switch spec.Layout {
		case "", "row":
			layout = storage.NSM(len(attrs))
		case "column":
			layout = storage.DSM(len(attrs))
		default:
			return fmt.Errorf("service: load layout %q (want row or column)", spec.Layout)
		}
		rel := storage.NewRelation(storage.NewSchema(spec.Table, attrs...), layout)
		if err := log("create", func(m *persist.Manager) error {
			return m.LogCreateTable(plan.NewCatalog().Add(rel), spec.Table)
		}); err != nil {
			return err
		}
		tx.AddTable(rel)
		width, created = len(attrs), true
		return nil
	})
	return width, created, err
}

// applyLoadBatch encodes one parsed batch and commits it as one write.
// The relation is re-resolved per batch in case a concurrent /optimize
// published a re-laid-out sibling (dictionaries are shared between
// versions, so codes stay consistent either way). The batch's new string
// values are logged, then appended to the shared, append-only
// dictionaries before the rows are — harmless to concurrent readers,
// whose pinned rows only reference the pre-existing prefix. A batch that
// fails to encode changes nothing.
func (s *DB) applyLoadBatch(table string, raw [][]persist.Field, qid string) error {
	return s.write(qid, func(tx *core.WriteTxn, log logFn) error {
		rel := tx.Catalog().Table(table)
		rows, grown, err := persist.EncodeRows(rel, raw)
		if err != nil {
			return err
		}
		for ai, values := range grown {
			if len(values) == 0 {
				continue
			}
			if err := log("dictionary growth", func(m *persist.Manager) error {
				return m.LogDictAppend(table, ai, values)
			}); err != nil {
				return err
			}
			tx.DictAppend(table, ai, values)
		}
		if err := log("batch", func(m *persist.Manager) error {
			return m.LogInsert(table, rel.Schema.Width(), rows)
		}); err != nil {
			return err
		}
		tx.Insert(table, rows)
		return nil
	})
}
