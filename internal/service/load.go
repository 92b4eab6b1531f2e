package service

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Bulk ingestion: the streaming counterpart of plan.Insert. Rows arrive
// as CSV or NDJSON and enter the table batch-by-batch through a two-stage
// pipeline. The calling goroutine reads the stream outside any lock in
// blocks, cuts each block into whole batches at record boundaries, and
// has the service's pool parse the batches as morsels into flat word
// batches (persist.Batch, every number and bool already decoded;
// persist.BlockReader). One committer goroutine runs each batch, in
// stream order, as one write (write.go): string cells to dictionary
// codes, WAL logging, one copy-on-write storage.Relation.AppendRows and
// the atomic publish, all under the commit mutex. Batch boundaries, codes
// and errors are those of a serial load at any worker count. When the
// stream reports its length, the first batch's write reserves the
// table's estimated rows, so the partitions grow once rather than by
// doubling. The committer holds each batch until the next arrives, so it
// knows the last one: that batch's write also clips the table's
// partitions to their length, dropping the spare capacity the growth
// left. A gigabyte load therefore publishes one version per batch,
// concurrent queries run lock-free on whichever version they pinned, and
// only other writers ever wait on a batch.

// loadBatchRows is the ingest batch size: large enough to amortize
// commit-mutex acquisition and WAL commit, small enough to bound how
// long other writers wait.
const loadBatchRows = 4096

// loadHoldBack is how long the load committer holds a read batch while it
// waits for the next one (see pipelineBatches).
const loadHoldBack = 20 * time.Millisecond

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

	attrs, created, err := s.loadTarget(spec)
	if err != nil {
		return res, err
	}
	res.Created = created

	var br *persist.BlockReader
	if spec.Format == "csv" {
		br = persist.NewCSVReader(r, attrs)
	} else {
		br = persist.NewNDJSONReader(r, attrs)
	}
	br.SetParOptions(s.opt)

	res.Rows, err = s.pipelineBatches(br, spec)
	if err != nil {
		return res, err
	}
	s.metrics.loads.Inc()
	s.metrics.loadedRows.Add(int64(res.Rows))
	return res, nil
}

// pipelineBatches reads br on the calling goroutine and commits each
// batch with applyLoadBatch on one committer goroutine, in stream order,
// so dictionary codes come out exactly as a serial load assigns them.
// Reading stays on the caller because an HTTP handler's request body may
// not be read after the handler returns. Up to a block's batches wait
// for the committer (persist.BlockBatches), so the caller reads and the
// pool parses the next block while the committer works through the last
// one's.
//
// The committer holds each batch until the next one arrives or the
// stream ends, so it knows which batch is the last; it commits the held
// batch as not last after loadHoldBack without either, so a stream that
// stalls still shows every batch it has sent.
//
// The committer has exited before pipelineBatches returns, whatever ends
// the load; rows counts only batches whose write returned nil. A commit
// error wins over a later read error, as in a serial load, and a
// committer panic is re-raised here.
func (s *DB) pipelineBatches(br persist.BatchReader, spec LoadSpec) (rows int, err error) {
	batches := make(chan *persist.Batch, persist.BlockBatches(s.opt))
	done := make(chan struct{})
	var commitErr error
	var panicked any
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		var held *persist.Batch
		commit := func(last bool) bool {
			commitErr = s.applyLoadBatch(spec.Table, held, last, rows, spec.QueryID)
			if commitErr == nil {
				rows += held.Rows()
			}
			held.Release()
			held = nil
			return commitErr == nil
		}
		stall := time.NewTimer(loadHoldBack)
		defer stall.Stop()
		for {
			var stalled <-chan time.Time
			if held != nil {
				stall.Reset(loadHoldBack)
				stalled = stall.C
			}
			select {
			case b, more := <-batches:
				if held != nil && !commit(!more) {
					return
				}
				if !more {
					return
				}
				held = b
			case <-stalled:
				if !commit(false) {
					return
				}
			}
		}
	}()

	var readErr error
	func() {
		defer func() { close(batches); <-done }() // also when a read panics
		for {
			b, err := br.ReadBatch(loadBatchRows)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					readErr = err
				}
				return
			}
			select {
			case batches <- b:
			case <-done: // the committer stopped: a batch failed
				return
			}
		}
	}()
	if panicked != nil {
		panic(panicked)
	}
	if commitErr != nil {
		return rows, commitErr
	}
	return rows, readErr
}

// loadTarget resolves (or creates) the target table and returns its
// attributes. A create is a write of its own: the table is WAL-logged,
// then added and published — a logging failure leaves the catalog
// without the table, so the load is safe to retry.
func (s *DB) loadTarget(spec LoadSpec) (attrs []storage.Attribute, created bool, err error) {
	err = s.write(spec.QueryID, func(tx *core.WriteTxn, log logFn) error {
		cat := tx.Catalog()
		if cat.Has(spec.Table) {
			if spec.CreateSpec != "" {
				return fmt.Errorf("service: table %q already exists, drop the create spec", spec.Table)
			}
			attrs = cat.Table(spec.Table).Schema.Attrs
			return nil
		}
		if spec.CreateSpec == "" {
			return fmt.Errorf("service: unknown table %q (pass a create spec to create it)", spec.Table)
		}
		parsed, err := persist.ParseSchemaSpec(spec.CreateSpec)
		if err != nil {
			return err
		}
		attrs = parsed
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
		created = true
		return nil
	})
	return attrs, created, err
}

// applyLoadBatch encodes one read batch and commits it as one write.
// Each batch is a write transaction of its own, so it resolves the
// relation afresh: an /optimize that committed between two batches
// re-laid it out (dictionaries are shared between versions, so codes
// stay consistent either way). The batch's new string values are
// logged, then appended to the shared, append-only dictionaries before
// the rows are — harmless to concurrent readers, whose pinned rows only
// reference the pre-existing prefix. The last batch of a load that
// wrote at least half of the table's rows (loaded counts those of the
// earlier batches) also clips the table's partitions, copying them as
// morsels on the service's pool: the copy then costs at most what the
// load did, while a small load into a large table keeps the table's
// spare capacity for the next append instead of copying it. A stream's
// first batch that carries the stream's estimated rows reserves them.
func (s *DB) applyLoadBatch(table string, b *persist.Batch, last bool, loaded int, qid string) error {
	return s.write(qid, func(tx *core.WriteTxn, log logFn) error {
		rel := tx.Catalog().Table(table)
		clip := last && 2*(loaded+b.Rows()) >= rel.Rows()+b.Rows()
		grown := persist.EncodeRows(rel, b)
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
			return m.LogInsertWords(table, rel.Schema.Width(), b.Words)
		}); err != nil {
			return err
		}
		if n := b.StreamRows(); n > 0 {
			tx.Reserve(table, n)
		}
		tx.AppendRows(table, b.Words)
		if clip {
			tx.Clip(table)
		}
		return nil
	})
}
