package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// baselineEngine is the serial paper-baseline processor every served result
// is compared with.
const baselineEngine = "bulk"

// gate is the correctness check that runs before any timing: every
// distinct request of the workload, sent over HTTP and fully decoded, must
// return the rows the baseline engine computes on the same catalog. It
// fills in each request's wantRows for the timed path's byte-scan check.
func gate(e *env, wl *workload, d *dataset) error {
	db := e.svc.Unwrap()
	check := func(r *request, baseline *core.DB) error {
		want, err := baseline.QueryWith(baselineEngine, r.plan)
		if err != nil {
			return err
		}
		got, err := fetch(e.url, r.body, want.Cols)
		if err != nil {
			return fmt.Errorf("plan %s: %w", r.body, err)
		}
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("plan %s: served result differs from %s engine: %w", r.body, baselineEngine, err)
		}
		r.wantRows = want.Len()
		return nil
	}
	for i := range e.reqs {
		if err := check(&e.reqs[i], db); err != nil {
			return err
		}
	}
	if !wl.writes() {
		return nil
	}
	// An insert's baseline runs on a scratch catalog: running it on the
	// served one would add the rows twice.
	r := e.insertRequest(d, 0)
	if err := check(&r, scratchCore(db)); err != nil {
		return err
	}
	e.acked.Add(1)
	return nil
}

// scratchCore is a private catalog shaped like the served one: it shares
// the two loaded relations, which nothing writes, and has its own empty
// events. Inserts replayed for the trace go here, never to the served core.
func scratchCore(served *core.DB) *core.DB {
	db := core.Open()
	db.AddTable(served.Table("orders"))
	db.AddTable(served.Table("recent"))
	attrs, err := persist.ParseSchemaSpec(eventsSpec)
	if err != nil {
		panic(err)
	}
	db.AddTable(storage.NewRelation(storage.NewSchema("events", attrs...), storage.NSM(len(attrs))))
	return db
}

// sameRows compares two results as multisets of rows: none of the
// workloads' plans orders its output.
func sameRows(got, want *result.Set) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	if !result.EqualUnordered(got, want) {
		g, w := got.Sorted(), want.Sorted()
		for i := range w.Rows {
			if result.CompareRows(g.Rows[i], w.Rows[i]) != 0 {
				return fmt.Errorf("row %d of the sorted results is %v, want %v", i, g.Rows[i], w.Rows[i])
			}
		}
		return fmt.Errorf("column counts differ: %d, want %d", len(got.Cols), len(want.Cols))
	}
	return nil
}

// fetch posts a plan and decodes the whole reply back into words, using
// cols (the baseline's output schema) for the string dictionaries.
func fetch(url string, body []byte, cols []plan.Column) (*result.Set, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return decodeReply(data, cols)
}

func decodeReply(data []byte, cols []plan.Column) (*result.Set, error) {
	var reply struct {
		Cols []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"cols"`
		Rows     [][]json.RawMessage `json:"rows"`
		RowCount int                 `json:"rowCount"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if len(reply.Cols) != len(cols) {
		return nil, fmt.Errorf("reply has %d columns, want %d", len(reply.Cols), len(cols))
	}
	for j, c := range reply.Cols {
		if c.Type != cols[j].Type.String() {
			return nil, fmt.Errorf("column %d is %s, want %s", j, c.Type, cols[j].Type)
		}
	}
	if reply.RowCount != len(reply.Rows) {
		return nil, fmt.Errorf("rowCount %d but %d rows", reply.RowCount, len(reply.Rows))
	}
	out := result.New(cols)
	for i, row := range reply.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("row %d has %d cells, want %d", i, len(row), len(cols))
		}
		words := make([]storage.Word, len(row))
		for j, cell := range row {
			w, err := cellWord(cell, cols[j])
			if err != nil {
				return nil, fmt.Errorf("row %d column %d: %w", i, j, err)
			}
			words[j] = w
		}
		out.Append(words)
	}
	return out, nil
}

// cellWord re-encodes one JSON cell as the word the engines computed.
func cellWord(cell json.RawMessage, col plan.Column) (storage.Word, error) {
	text := string(cell)
	if text == "null" {
		return storage.Null, nil
	}
	switch col.Type {
	case storage.Int64:
		v, err := strconv.ParseInt(text, 10, 64)
		return storage.EncodeInt(v), err
	case storage.Float64:
		v, err := strconv.ParseFloat(text, 64)
		return storage.EncodeFloat(v), err
	case storage.Bool:
		v, err := strconv.ParseBool(text)
		return storage.EncodeBool(v), err
	}
	var s string
	if err := json.Unmarshal(cell, &s); err != nil {
		return 0, err
	}
	if col.Dict == nil {
		return 0, fmt.Errorf("string %q in a column without a dictionary", s)
	}
	code, ok := col.Dict.Code(s)
	if !ok {
		return 0, fmt.Errorf("string %q is not in the column's dictionary", s)
	}
	return code, nil
}

// checkWrites runs after a writing workload: events must hold insertRows
// rows per acknowledged insert, and a reopened data directory must recover
// the same rows. With fsync off this checks that a cleanly shut down log is
// complete, not that writes survive a crash. It closes the WAL manager.
func checkWrites(e *env) error {
	want := e.acked.Load() * insertRows
	count := plan.Aggregate{
		Child: plan.Scan{Table: "events", Cols: []int{0}},
		Aggs:  []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
	}
	got, err := fetch(e.url, mustBody(count), []plan.Column{{Name: "n", Type: storage.Int64}})
	if err != nil {
		return fmt.Errorf("counting events: %w", err)
	}
	if n := storage.DecodeInt(got.Rows[0][0]); n != want {
		return fmt.Errorf("events holds %d rows, want %d (%d acknowledged inserts of %d rows)", n, want, e.acked.Load(), insertRows)
	}

	e.svc.DetachPersist()
	if err := e.mgr.Close(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	e.mgr = nil
	recovered, mgr, err := persist.Open(persist.Options{Dir: e.walDir})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", e.walDir, err)
	}
	defer mgr.Close()
	return sameRelation(recovered.Table("events"), e.svc.Unwrap().Table("events"))
}

func sameRelation(got, want *storage.Relation) error {
	if got.Rows() != want.Rows() {
		return fmt.Errorf("recovered events holds %d rows, want %d", got.Rows(), want.Rows())
	}
	var g, w []storage.Word
	for i := 0; i < want.Rows(); i++ {
		g, w = got.RowValues(i, g), want.RowValues(i, w)
		if result.CompareRows(g, w) != 0 {
			return fmt.Errorf("recovered events row %d is %v, want %v", i, g, w)
		}
	}
	return nil
}
