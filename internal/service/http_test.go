package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/storage"
)

func newTestServer(t *testing.T) (*httptest.Server, *DB) {
	t.Helper()
	s := New(NewDemoDB(testRows), Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, s
}

func post(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// demoQueryJSON is the human-written form of DemoQuery: typed constants
// instead of raw words.
func demoQueryJSON(threshold int) string {
	return fmt.Sprintf(`{"plan": {
		"op": "aggregate",
		"child": {
			"op": "scan", "table": "R",
			"filter": {"pred": "cmp", "attr": 0, "op": "<", "val": {"int": %d}},
			"cols": [1, 2, 3, 4]
		},
		"aggs": [
			{"agg": "sum", "arg": {"expr": "col", "attr": 0, "type": "int64"}, "name": "sum_b"},
			{"agg": "sum", "arg": {"expr": "col", "attr": 1, "type": "int64"}, "name": "sum_c"},
			{"agg": "sum", "arg": {"expr": "col", "attr": 2, "type": "int64"}, "name": "sum_d"},
			{"agg": "sum", "arg": {"expr": "col", "attr": 3, "type": "int64"}, "name": "sum_e"}
		]
	}}`, threshold)
}

func TestHTTPQuery(t *testing.T) {
	srv, s := newTestServer(t)

	resp, out := post(t, srv.URL+"/query", demoQueryJSON(10_000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %v", resp.StatusCode, out)
	}
	if out["rowCount"].(float64) != 1 {
		t.Fatalf("rowCount = %v, want 1", out["rowCount"])
	}
	rows := out["rows"].([]any)
	row := rows[0].([]any)
	if len(row) != 4 {
		t.Fatalf("row arity = %d, want 4", len(row))
	}
	// Cross-check one value against the in-process path.
	want, err := s.Query(DemoQuery(0.01))
	if err != nil {
		t.Fatal(err)
	}
	direct := float64(storage.DecodeInt(want.Rows[0][0]))
	if row[0].(float64) != direct {
		t.Fatalf("sum_b over HTTP = %v, direct = %v", row[0], direct)
	}
}

func TestHTTPPrepareExec(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, out := post(t, srv.URL+"/prepare", demoQueryJSON(50_000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare status = %d, body = %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	if id == "" {
		t.Fatal("prepare returned no id")
	}
	if cols := out["cols"].([]any); len(cols) != 4 {
		t.Fatalf("prepare cols = %d, want 4", len(cols))
	}

	resp, out = post(t, srv.URL+"/exec", fmt.Sprintf(`{"id": %q}`, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec status = %d, body = %v", resp.StatusCode, out)
	}
	if out["rowCount"].(float64) != 1 {
		t.Fatalf("exec rowCount = %v, want 1", out["rowCount"])
	}

	resp, out = post(t, srv.URL+"/exec", `{"id": "nope"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stmt status = %d, body = %v", resp.StatusCode, out)
	}

	// The body is read by the envelope's rules: malformed JSON or bytes
	// after the object are a 400, names match exactly, other members are
	// skipped, and a null id is no id.
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"id": `, http.StatusBadRequest},
		{`{"id": 7}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"id": %q} x`, id), http.StatusBadRequest},
		{fmt.Sprintf(`{"id": %q}{}`, id), http.StatusBadRequest},
		{`{"id": null}`, http.StatusNotFound},
		{fmt.Sprintf(`{"ID": %q}`, id), http.StatusNotFound},
		{fmt.Sprintf(`{"args": [1, {"a": null}], "id": %q, "x": null}`, id), http.StatusOK},
	} {
		if resp, out := post(t, srv.URL+"/exec", c.body); resp.StatusCode != c.want {
			t.Errorf("exec %s: status %d, want %d (body %v)", c.body, resp.StatusCode, c.want, out)
		}
	}
}

// TestHTTPPrepareCloseCycles runs twice as many prepare-then-close cycles
// as the statement registry holds: a client that closes what it prepares
// can prepare forever.
func TestHTTPPrepareCloseCycles(t *testing.T) {
	srv, _ := newTestServer(t)
	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/prepare?id="+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const cycles = 2 * maxStmts
	badClose := 0
	for i := 1; i <= cycles; i++ {
		resp, out := post(t, srv.URL+"/prepare", demoQueryJSON(50_000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prepare #%d: status %d, body %v", i, resp.StatusCode, out)
		}
		if code := del(out["id"].(string)); code != http.StatusNoContent {
			if badClose == 0 {
				t.Errorf("close #%d: status %d, want 204", i, code)
			}
			badClose++
		}
	}
	if badClose > 0 {
		t.Fatalf("%d of %d closes failed", badClose, cycles)
	}
	if code := del("s1"); code != http.StatusNotFound {
		t.Fatalf("closing a closed statement: status %d, want 404", code)
	}
	if resp, out := post(t, srv.URL+"/exec", `{"id": "s1"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("exec of a closed statement: status %d, body %v", resp.StatusCode, out)
	}
}

func TestHTTPValidationErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	cases := []struct {
		body  string
		field string
	}{
		{`{"plan": {"op": "scan", "table": "nope", "cols": [0]}}`, "plan.table"},
		{`{"plan": {"op": "scan", "table": "R", "cols": [99]}}`, "plan.cols[0]"},
		{`{"plan": {"op": "teleport"}}`, "plan.op"},
		{`{"plan": {"op": "scan", "table": "R", "cols": [0], "filter": {"pred": "cmp", "attr": 0, "op": "!!", "val": {"int": 1}}}}`, "plan.filter.op"},
		{`{"plan": {"op": "aggregate", "child": {"op": "scan", "table": "R", "cols": [0, 1, 2, 3, 4]}, "groupBy": [0, 1, 2, 3, 4], "aggs": [{"agg": "count"}]}}`, "plan.groupBy"},
		{`{"plan": {"op": "scan", "table": "R", "cols": [0], "filter": {"pred": "inset", "attr": 0, "codes": [1], "space": 1000000000000}}}`, "plan.filter.space"},
	}
	for _, tc := range cases {
		resp, out := post(t, srv.URL+"/query", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d for %s, want 400", resp.StatusCode, tc.body)
		}
		if out["field"] != tc.field {
			t.Fatalf("error field = %v, want %s (body: %v)", out["field"], tc.field, out)
		}
	}

	// Non-JSON body.
	resp, _ := post(t, srv.URL+"/query", `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON body status = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPTablesAndStats(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, out := get(t, srv.URL+"/tables")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tables status = %d", resp.StatusCode)
	}
	tables := out["tables"].([]any)
	if len(tables) != 1 || tables[0].(map[string]any)["name"] != "R" {
		t.Fatalf("tables = %v", out)
	}

	post(t, srv.URL+"/query", demoQueryJSON(1000))
	resp, out = get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if n := out[`db_queries_total{outcome="ok"}`].(float64); n < 1 {
		t.Fatalf("stats queries = %v, want >= 1", n)
	}
}

func TestHTTPOptimize(t *testing.T) {
	srv, s := newTestServer(t)
	DemoWorkload(s.Unwrap())

	resp, out := post(t, srv.URL+"/optimize", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d, body = %v", resp.StatusCode, out)
	}
	if _, ok := out["changes"]; !ok {
		t.Fatalf("optimize response missing changes: %v", out)
	}
	// Queries still work (and recompile) after the relayout.
	resp, out = post(t, srv.URL+"/query", demoQueryJSON(1000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after optimize status = %d, body = %v", resp.StatusCode, out)
	}
}

// TestHTTPNonFiniteFloatIsNull: /load accepts NaN and Inf (strconv parses
// them) and JSON cannot carry them; the reply must still be a document,
// with null in the cell. It used to be a 200 with an empty body.
func TestHTTPNonFiniteFloatIsNull(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, out := post(t, srv.URL+"/load?table=f&format=csv&create=id:int64,v:float64", "1,NaN\n")
	if resp.StatusCode != http.StatusOK || out["rows"].(float64) != 1 {
		t.Fatalf("load status = %d, body = %v", resp.StatusCode, out)
	}
	resp, out = post(t, srv.URL+"/query", `{"plan": {"op": "scan", "table": "f", "cols": [0, 1]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body = %v", resp.StatusCode, out)
	}
	if out["rowCount"].(float64) != 1 {
		t.Fatalf("rowCount = %v, want 1", out["rowCount"])
	}
	if row := out["rows"].([]any)[0].([]any); row[0].(float64) != 1 || row[1] != nil {
		t.Fatalf("row = %v, want [1 null]", row)
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses is a 500 with an
// error body, not a 200 with nothing in it.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"ratio": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var out errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Fatalf("body %q: err %v, want an error document", rec.Body, err)
	}
}

// TestHTTPReplyFraming: a one-row reply is one chunk and one Write, so
// net/http gives it a Content-Length; a 50,000-row one is written wave by
// wave on the pool, chunked.
func TestHTTPReplyFraming(t *testing.T) {
	const rows = 50_000
	s := New(NewDemoDB(rows), Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer s.Close()
	defer srv.Close()

	resp, out := post(t, srv.URL+"/query", demoQueryJSON(10_000))
	if resp.ContentLength <= 0 || out["rowCount"].(float64) != 1 {
		t.Errorf("one-row reply has Content-Length %d, want it set (body %v)", resp.ContentLength, out)
	}
	resp, out = post(t, srv.URL+"/query", `{"plan": {"op": "scan", "table": "R", "cols": [0, 1, 2, 3]}}`)
	if resp.StatusCode != http.StatusOK || out["rowCount"].(float64) != rows || len(out["rows"].([]any)) != rows {
		t.Fatalf("scan status = %d, rowCount = %v", resp.StatusCode, out["rowCount"])
	}
	if resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("%d-row reply: Content-Length %d, Transfer-Encoding %v; want chunked", rows, resp.ContentLength, resp.TransferEncoding)
	}
}
