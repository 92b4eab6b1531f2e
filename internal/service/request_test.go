package service

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

const scanR = `{"op":"scan","table":"R","cols":[0]}`

// TestParsePlanRequest covers the /query and /prepare envelope: what it
// reads, what it skips, and what it refuses.
func TestParsePlanRequest(t *testing.T) {
	ok := []struct {
		in      string
		explain bool
	}{
		// "engine" is not a member: it is skipped like "note", whatever
		// its value.
		{`{"plan":` + scanR + `}`, false},
		{` { "engine" : "vector" , "plan" : ` + scanR + ` , "explain" : true } `, true},
		{`{"explain":null,"engine":null,"plan":` + scanR + `,"note":{"any":["thing",1.5e3,null]}}`, false},
		{`{"explain":true,"plan":` + scanR + `,"explain":false}`, false},
		{`{"plan":` + scanR + `,"engine":"jit"}`, false},
		{`{"plan":` + scanR + `,"engine":7}`, false},
	}
	for _, tc := range ok {
		req, err := parsePlanRequest([]byte(tc.in))
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if s, isScan := req.plan.(plan.Scan); !isScan || s.Table != "R" || req.explain != tc.explain {
			t.Errorf("%s: got %+v", tc.in, req)
		}
	}

	bad := []struct{ name, in, field string }{
		{"empty", ``, ""},
		{"not-an-object", `[` + scanR + `]`, ""},
		{"null", `null`, ""},
		{"no-plan", `{"explain":true}`, ""},
		{"plan-null", `{"plan":null}`, "plan"},
		{"plan-fault-named", `{"plan":{"op":"scan","table":"R","cols":[-1]}}`, "plan.cols[0]"},
		{"plan-malformed", `{"plan":{"op":"scan",}}`, "plan"},
		{"trailing", `{"plan":` + scanR + `} {}`, ""},
		{"truncated", `{"plan":` + scanR, ""},
		{"explain-not-bool", `{"plan":` + scanR + `,"explain":"yes"}`, ""},
		{"bad-unknown-member", `{"plan":` + scanR + `,"x":[1,]}`, ""},
		// Narrowings against the encoding/json envelope this replaced: it
		// matched member names case-insensitively and kept the last "plan".
		{"case-sensitive", `{"Plan":` + scanR + `}`, ""},
		{"plan-twice", `{"plan":` + scanR + `,"plan":` + scanR + `}`, ""},
	}
	for _, tc := range bad {
		_, err := parsePlanRequest([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.in)
			continue
		}
		var fe *plan.FieldError
		if field := ""; errors.As(err, &fe) {
			field = fe.Field
			if field != tc.field {
				t.Errorf("%s: error names field %q, want %q (%v)", tc.name, field, tc.field, err)
			}
		} else if tc.field != "" {
			t.Errorf("%s: got %v, want a FieldError at %s", tc.name, err, tc.field)
		}
	}
}

// chunked hides a reader's length from net/http, so the request goes out
// without a Content-Length.
type chunked struct{ io.Reader }

// TestReadBodyLimits: the 405/400/413 replies, with and without a declared
// Content-Length.
func TestReadBodyLimits(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"plan":` + scanR + `}`
	huge := strings.Repeat(" ", maxRequestBytes+1-len(body)) + body

	do := func(method string, rd io.Reader) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+"/query", rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	for _, tc := range []struct {
		name, method string
		body         io.Reader
		status       int
		reply        string
	}{
		{"get", http.MethodGet, nil, 405, `{"error":"use POST"}` + "\n"},
		{"sized", http.MethodPost, strings.NewReader(body), 200, ""},
		{"chunked", http.MethodPost, chunked{strings.NewReader(body)}, 200, ""},
		{"sized-at-limit", http.MethodPost, strings.NewReader(huge[1:]), 200, ""},
		{"sized-over", http.MethodPost, strings.NewReader(huge), 413, `{"error":"request over 8388608 bytes"}` + "\n"},
		{"chunked-over", http.MethodPost, chunked{strings.NewReader(huge)}, 413, `{"error":"request over 8388608 bytes"}` + "\n"},
	} {
		status, reply := do(tc.method, tc.body)
		if status != tc.status || tc.reply != "" && reply != tc.reply {
			t.Errorf("%s: %d %q, want %d %q", tc.name, status, reply, tc.status, tc.reply)
		}
	}

	// A body shorter than its Content-Length is a read error, not a parse.
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	req.ContentLength = int64(len(body)) + 10
	rec := httptest.NewRecorder()
	if _, ok := readBody(rec, req); ok || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading body") {
		t.Errorf("short body: ok=%v, %d %q", ok, rec.Code, rec.Body)
	}
}

// TestPlanKeyAllocs: hashing a plan borrows its buffer, so a warm pool
// makes the cache key free of allocations; and equal plans built apart
// share a key while differing constants do not.
func TestPlanKeyAllocs(t *testing.T) {
	point := func(id int64) plan.Node {
		return plan.Scan{
			Table:  "orders",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(id)},
			Cols:   []int{0, 1, 2, 8, 10, 11},
		}
	}
	a, err := planKey(point(7))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := planKey(point(7)); a != b {
		t.Error("equal plans hash apart")
	}
	if b, _ := planKey(point(8)); a == b {
		t.Error("different constants share a key")
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop buffers at random
	}
	p := DemoQuery(0.01)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := planKey(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("planKey allocates %v times per call on a warm pool, want 0", n)
	}
}

// BenchmarkRequestEnvelope is the layer from a /query body to its plan:
// the envelope and the plan document in one pass.
func BenchmarkRequestEnvelope(b *testing.B) {
	rows := make([][]storage.Word, 4)
	for r := range rows {
		rows[r] = []storage.Word{
			storage.EncodeInt(int64(r)), storage.EncodeInt(int64(734_201 + r)),
			storage.EncodeFloat(float64(12_345+r) / 100), storage.EncodeInt(int64(r % 16)),
		}
	}
	for name, p := range map[string]plan.Node{
		"insert4x4": plan.Insert{Table: "events", Rows: rows},
		"point": plan.Scan{
			Table:  "orders",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(1_234_567)},
			Cols:   []int{0, 1, 2, 8, 10, 11},
		},
	} {
		data, err := plan.MarshalNode(p)
		if err != nil {
			b.Fatal(err)
		}
		body := append(append([]byte(`{"plan":`), data...), '}')
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := parsePlanRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
