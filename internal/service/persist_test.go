package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// openPersistent builds a service over a persistence-backed DB.
func openPersistent(t *testing.T, dir string, cfg Config) (*DB, *persist.Manager) {
	t.Helper()
	db, mgr, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, cfg)
	s.AttachPersist(mgr, -1) // no automatic trigger: tests checkpoint explicitly
	return s, mgr
}

func TestServiceLoadCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	s, mgr := openPersistent(t, dir, Config{Workers: 1})

	// Create + load a table over the service API, as /load does.
	csv := "1,alpha,1.5\n2,beta,2.5\n3,alpha,3.5\n"
	res, err := s.Load(LoadSpec{
		Table: "ev", Format: "csv",
		CreateSpec: "id:int64,kind:string,score:float64",
		Layout:     "column",
	}, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3 || !res.Created {
		t.Fatalf("load result %+v", res)
	}
	// Second load appends without create.
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "ndjson"},
		strings.NewReader(`[4, "gamma", null]`)); err != nil {
		t.Fatal(err)
	}

	q := plan.Scan{Table: "ev", Cols: []int{0, 1, 2}}
	want, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 4 {
		t.Fatalf("query returned %d rows, want 4", want.Len())
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint insert rides the WAL.
	if _, err := s.Query(plan.Insert{Table: "ev", Rows: [][]storage.Word{
		{storage.EncodeInt(5), storage.Null, storage.EncodeFloat(9.9)},
	}}); err != nil {
		t.Fatal(err)
	}
	want, err = s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: rows, dict codes and query results must survive.
	s2, mgr2 := openPersistent(t, dir, Config{Workers: 1})
	defer s2.Close()
	defer mgr2.Close()
	got, err := s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(want, got) {
		t.Fatalf("recovered query differs: %d vs %d rows", want.Len(), got.Len())
	}
	rel := s2.Unwrap().Table("ev")
	if rel.StringOf(3, 1) != "gamma" || rel.StringOf(0, 1) != "alpha" {
		t.Fatal("recovered dictionary decodes wrong strings")
	}
	if rel.Layout.Kind() != "column" {
		t.Fatalf("recovered layout kind %q, want column", rel.Layout.Kind())
	}
}

func TestHTTPLoadQueryStringsAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, mgr := openPersistent(t, dir, Config{Workers: 1})
	defer s.Close()
	defer mgr.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, contentType, body string) (int, map[string]any) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	code, m := post("/load?table=ev&format=csv&create=id:int64,kind:string", "text/csv",
		"1,alpha\n2,beta\n")
	if code != 200 || m["rows"].(float64) != 2 || m["created"] != true {
		t.Fatalf("load: %d %v", code, m)
	}

	// String columns come back as real strings now.
	code, m = post("/query", "application/json",
		`{"plan": {"op": "scan", "table": "ev", "cols": [0, 1]}}`)
	if code != 200 {
		t.Fatalf("query status %d: %v", code, m)
	}
	rows := m["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	first := rows[0].([]any)
	if first[1] != "alpha" {
		t.Fatalf("string column decoded to %v (%T), want \"alpha\"", first[1], first[1])
	}

	code, m = post("/checkpoint", "application/json", "{}")
	if code != 200 || m["snapshotBytes"].(float64) <= 0 {
		t.Fatalf("checkpoint: %d %v", code, m)
	}

	// Bad loads are 400s with an explanation.
	code, m = post("/load?table=nope", "text/csv", "1\n")
	if code != 400 || !strings.Contains(m["error"].(string), "unknown table") {
		t.Fatalf("load into unknown table: %d %v", code, m)
	}
	code, _ = post("/load?table=ev&format=xml", "text/xml", "")
	if code != 400 {
		t.Fatalf("bad format accepted: %d", code)
	}
}

// TestFailedBatchDictGrowthSurvivesRecovery pins the dictionary-delta
// contract: string values appended by a batch that later fails to
// encode are in the in-memory dictionary, so they must reach the WAL —
// otherwise the next successful load's delta skips them and every later
// code shifts on replay.
func TestFailedBatchDictGrowthSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s, mgr := openPersistent(t, dir, Config{Workers: 1})

	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,kind:string"},
		strings.NewReader("1,alpha\n")); err != nil {
		t.Fatal(err)
	}
	// Row 1 appends "leaked" to the dictionary, row 2 fails to parse.
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"},
		strings.NewReader("2,leaked\nnot-an-int,beta\n")); err == nil {
		t.Fatal("malformed batch accepted")
	}
	// A later successful load adds another fresh value.
	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"},
		strings.NewReader("3,after\n")); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), s.Unwrap().Table("ev").Dicts[1].Values()...)
	s.Close()
	mgr.Close()

	s2, mgr2 := openPersistent(t, dir, Config{Workers: 1})
	defer s2.Close()
	defer mgr2.Close()
	rel := s2.Unwrap().Table("ev")
	got := rel.Dicts[1].Values()
	if len(got) != len(want) {
		t.Fatalf("recovered dict %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered dict %v, want %v (codes shifted)", got, want)
		}
	}
	// Row with code for "after" decodes correctly (rows: 1,alpha / 3,after).
	if rel.Rows() != 2 || rel.StringOf(1, 1) != "after" {
		t.Fatalf("rows=%d last kind=%q, want 2 and \"after\"", rel.Rows(), rel.StringOf(rel.Rows()-1, 1))
	}
}

func TestHTTPCheckpointWithoutPersistence(t *testing.T) {
	s := New(NewDemoDB(100), Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/checkpoint", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
}

// TestConcurrentQueriesDuringLoadAndCheckpoint exercises the lock
// coordination: queries (read lock) run while a bulk load (write lock,
// batch-wise) and checkpoints (read lock) proceed. Run under -race this
// also proves the dictionary's publish-on-append safety for the HTTP
// decode path.
func TestConcurrentQueriesDuringLoadAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, mgr := openPersistent(t, dir, Config{Workers: 2, MaxInFlight: 8})
	defer s.Close()
	defer mgr.Close()

	if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,kind:string"},
		strings.NewReader("0,seed\n")); err != nil {
		t.Fatal(err)
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(1)
	go func() { // ingest stream with fresh dictionary values
		defer writers.Done()
		for i := 1; i < 40; i++ {
			var b bytes.Buffer
			for j := 0; j < 50; j++ {
				fmt.Fprintf(&b, "%d,kind-%d\n", i*100+j, i)
			}
			if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, &b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Add(1)
	go func() { // checkpoints overlap queries and loads
		defer writers.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := plan.Scan{
				Table:  "ev",
				Filter: expr.Cmp{Attr: 0, Op: expr.Ge, Val: storage.EncodeInt(0)},
				Cols:   []int{0, 1},
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				// Decode every string through the threaded dictionary,
				// as the HTTP layer does, concurrent with appends.
				for i, c := range res.Cols {
					if c.Type != storage.String || c.Dict == nil {
						continue
					}
					vals := c.Dict.Values()
					for _, row := range res.Rows {
						if row[i] != storage.Null && int(row[i]) >= len(vals) {
							t.Errorf("code %d outside published dictionary (%d values)", row[i], len(vals))
							return
						}
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := s.metrics.loadedRows.Value(); got != 1+39*50 {
		t.Fatalf("loaded %d rows, want %d", got, 1+39*50)
	}
}
