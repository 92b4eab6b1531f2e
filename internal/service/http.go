package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jsonx"
	"repro/internal/plan"
)

// HTTP front-end: a plain JSON-over-HTTP surface for the service.
//
//	POST /query      {"plan": <plan JSON>}          -> result
//	POST /prepare    {"plan": <plan JSON>}          -> {"id": "s1", "cols": [...]}
//	POST /exec       {"id": "s1"}                   -> result
//	POST /optimize   {}                             -> layout changes
//	POST /load?table=T&format=csv[&create=...]      -> bulk-ingest the body
//	POST /checkpoint {}                             -> snapshot + WAL reset
//	GET  /tables                                    -> catalog listing
//	GET  /stats                                     -> service counters
//	GET  /workload                                  -> captured column heat + plan shapes
//	GET  /advisor                                   -> layout-drift advice (advisory-only)
//	GET  /events?since=N                            -> cluster event journal replay
//	GET  /history                                   -> in-process metrics history ring
//	GET  /replication                               -> per-follower cursors and lag / apply position
//
// Results are streamed by writeResult (encode.go). Malformed plans get
// a 400 whose error names the offending field; admission rejections get
// a 429.
//
// /load streams the request body (CSV rows or NDJSON arrays) into a
// table, batch-wise, so the body is not size-limited like plan requests.
// Query parameters: table (required), format=csv|ndjson (default csv),
// create=name:type,... (create the table first), layout=row|column (for
// create, default row).

const maxRequestBytes = 8 << 20 // plans and insert batches, not bulk loads

// Handler returns the HTTP API for the service.
func (s *DB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/prepare", s.handlePrepare)
	mux.HandleFunc("/exec", s.handleExec)
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/load", s.handleLoad)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/tables", s.handleTables)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/workload", s.handleWorkload)
	mux.HandleFunc("/advisor", s.handleAdvisor)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/history", s.handleHistory)
	mux.HandleFunc("/replication", s.handleReplication)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.Metrics().Handler())
	return s.withQueryID(mux)
}

// maxQueryIDLen caps accepted client-supplied correlation ids.
const maxQueryIDLen = 64

// ValidQueryID reports whether a client-supplied X-Query-Id is
// acceptable: non-empty, at most maxQueryIDLen bytes, printable ASCII
// with no spaces (it travels in headers and log lines verbatim).
func ValidQueryID(id string) bool {
	if id == "" || len(id) > maxQueryIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < '!' || id[i] > '~' {
			return false
		}
	}
	return true
}

// qidKey carries the request's correlation id through its context.
type qidKey struct{}

// WithQueryID returns a context carrying the correlation id.
func WithQueryID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, qidKey{}, id)
}

// QueryIDFrom returns the context's correlation id ("" when unset).
func QueryIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(qidKey{}).(string)
	return id
}

// withQueryID assigns every request a correlation id — a client-supplied
// X-Query-Id when it validates, a process-unique generated one otherwise
// — echoed back as X-Query-Id, attached to the request context (write
// paths stamp it onto the WAL commit) and to the request-scoped debug
// log line: the handle for following one request across the primary's
// and every replica's logs.
func (s *DB) withQueryID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Query-Id")
		if !ValidQueryID(id) {
			id = fmt.Sprintf("q%d", s.queryIDs.Add(1))
		}
		w.Header().Set("X-Query-Id", id)
		r = r.WithContext(WithQueryID(r.Context(), id))
		start := time.Now()
		next.ServeHTTP(w, r)
		s.logger().Debug("request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int64("micros", time.Since(start).Microseconds()),
		)
	})
}

// planRequest is the body of /query and /prepare:
//
//	{"plan": <plan JSON>, "explain": bool}
//
// Member names match exactly; members other than these are skipped.
type planRequest struct {
	plan plan.Node
	// explain runs the plan with per-operator tracing and embeds the
	// report as "trace" in the response (EXPLAIN ANALYZE).
	explain bool
}

// parsePlanRequest reads the body in one pass: the envelope's members go
// through the scanner, and the plan is decoded by plan.UnmarshalNodePrefix
// straight out of the body where its member starts, so no byte of the
// request is visited twice. A fault inside the plan is a *plan.FieldError.
func parsePlanRequest(body []byte) (req planRequest, err error) {
	s := jsonx.Scanner{Data: body}
	ok := s.Consume('{')
	for first := true; ok; first = false {
		var more bool
		var key []byte
		if more, ok = s.More(first, '}'); !ok || !more {
			break
		}
		if key, ok = s.Key(); !ok {
			break
		}
		switch string(key) {
		case "plan":
			var end int
			if ok = req.plan == nil; !ok { // given twice
				break
			}
			if req.plan, end, err = plan.UnmarshalNodePrefix(body[s.Pos:]); err != nil {
				return planRequest{}, err
			}
			s.Pos += end
		case "explain":
			if req.explain, ok = s.Bool(); !ok {
				ok = s.Literal("null")
			}
		default:
			ok = s.SkipValue(plan.MaxNesting)
		}
	}
	switch {
	case !ok || !s.End():
		return planRequest{}, fmt.Errorf("malformed JSON body near byte %d", s.Pos)
	case req.plan == nil:
		return planRequest{}, fmt.Errorf("request body needs a \"plan\" field")
	}
	return req, nil
}

// readPlanRequest reads and parses a /query or /prepare body, writing the
// error response on failure.
func readPlanRequest(w http.ResponseWriter, r *http.Request) (planRequest, bool) {
	body, ok := readBody(w, r)
	if !ok {
		return planRequest{}, false
	}
	req, err := parsePlanRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return planRequest{}, false
	}
	return req, true
}

type execRequest struct {
	ID string `json:"id"`
}

type colJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type errorJSON struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

func (s *DB) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := readPlanRequest(w, r)
	if !ok {
		return
	}
	start := time.Now()
	res, tr, err := s.QueryEx(req.plan, QueryOpts{
		Explain: req.explain,
		QueryID: QueryIDFrom(r.Context()),
	})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	s.writeResult(w, r, res, time.Since(start), tr)
}

func (s *DB) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, ok := readPlanRequest(w, r)
	if !ok {
		return
	}
	st, err := s.Prepare(req.plan)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	cols := make([]colJSON, len(st.Cols))
	for i, c := range st.Cols {
		cols[i] = colJSON{Name: c.Name, Type: c.Type.String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": st.ID, "cols": cols})
}

func (s *DB) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if !readJSON(w, r, &req) {
		return
	}
	start := time.Now()
	res, err := s.Exec(req.ID)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			writeError(w, http.StatusTooManyRequests, err)
		} else {
			writeError(w, http.StatusNotFound, err)
		}
		return
	}
	s.writeResult(w, r, res, time.Since(start), nil)
}

func (s *DB) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	type changeJSON struct {
		Table   string  `json:"table"`
		Old     string  `json:"old"`
		New     string  `json:"new"`
		OldCost float64 `json:"oldCost"`
		NewCost float64 `json:"newCost"`
	}
	changes, err := s.OptimizeLayouts()
	if err != nil {
		writeQueryError(w, err)
		return
	}
	out := make([]changeJSON, len(changes))
	for i, ch := range changes {
		out[i] = changeJSON{
			Table: ch.Table, Old: ch.Old.String(), New: ch.New.String(),
			OldCost: ch.OldCost, NewCost: ch.NewCost,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"changes": out})
}

func (s *DB) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	q := r.URL.Query()
	spec := LoadSpec{
		Table:      q.Get("table"),
		Format:     q.Get("format"),
		CreateSpec: q.Get("create"),
		Layout:     q.Get("layout"),
		QueryID:    QueryIDFrom(r.Context()),
	}
	if spec.Format == "" {
		spec.Format = "csv"
	}
	start := time.Now()
	res, err := s.Load(spec, r.Body)
	if err != nil {
		// Client mistakes (bad spec, unparsable rows) are 400s; a WAL
		// failure is a server fault. Either way the failed batch was not
		// applied and the response names how many rows earlier batches
		// durably applied, so callers resume the stream instead of
		// re-sending it (which would duplicate those rows).
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrDurability):
			status = http.StatusInternalServerError
		case errors.Is(err, ErrReadOnly), errors.Is(err, ErrFenced):
			status = http.StatusConflict
		}
		writeJSON(w, status, map[string]any{
			"error": err.Error(), "table": res.Table, "rowsApplied": res.Rows,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table": res.Table, "rows": res.Rows, "created": res.Created,
		"micros": time.Since(start).Microseconds(),
	})
}

func (s *DB) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	start := time.Now()
	info, err := s.Checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNoPersistence) || errors.Is(err, ErrReadOnly) || errors.Is(err, ErrFenced) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshotBytes": info.SnapshotBytes, "walBytesDropped": info.WALBytes,
		"micros": time.Since(start).Microseconds(),
	})
}

func (s *DB) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.Tables()})
}

func (s *DB) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleWorkload serves the live capture snapshot: per-table column heat
// and the top tracked plan shapes.
func (s *DB) handleWorkload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.WorkloadSnapshot())
}

// handleAdvisor runs a fresh drift analysis of the captured mix and
// serves the per-table advice. Advisory-only: no relayout happens here —
// POST /optimize is the acting path (and it optimizes for the *declared*
// workload; the advice tells an operator when the live mix has drifted
// from it).
func (s *DB) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	start := time.Now()
	rep := s.Advise()
	writeJSON(w, http.StatusOK, map[string]any{
		"advice":  rep.Advice,
		"queries": rep.Queries,
		"shapes":  rep.Shapes,
		"micros":  time.Since(start).Microseconds(),
	})
}

// handleEvents replays the cluster event journal: ?since=N resumes from
// a cursor (0 = oldest retained), ?limit=N caps one page (default 256,
// max 1024). The response carries the next cursor and how many events
// the ring evicted before the reader got to them.
func (s *DB) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", v))
			return
		}
		since = n
	}
	limit := 256
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = min(n, 1024)
	}
	events, next, evicted := s.Events(since, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"events": events, "next": next, "evicted": evicted,
	})
}

// handleHistory serves the in-process metrics history ring in
// chronological order.
func (s *DB) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	samples, interval := s.History()
	writeJSON(w, http.StatusOK, map[string]any{
		"intervalSeconds": interval.Seconds(),
		"samples":         samples,
	})
}

// handleReplication serves the node's replication view: per-follower
// cursors and lag on a primary, apply position and lag on a replica.
func (s *DB) handleReplication(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.Replication())
}

// handleHealthz is the liveness/role probe. It always answers 200 as
// long as the process serves — a degraded replica (primary unreachable)
// and a fenced primary still answer reads, and that is what the status
// field reports:
//
//	ok        — the node is doing its job (primary accepting writes,
//	            replica streaming or bootstrapping)
//	degraded  — replica serving reads while the primary is unreachable
//	            (promoteEligible says whether the stall has lasted long
//	            enough for an operator to POST /promote)
//	fenced    — superseded primary: reads serve, writes are rejected
func (s *DB) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	st := s.Stats()
	status := "ok"
	switch {
	case st.Fenced:
		status = "fenced"
	case st.Degraded:
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          status,
		"role":            st.Role,
		"term":            st.Term,
		"fenced":          st.Fenced,
		"replState":       st.ReplState,
		"promoteEligible": st.PromoteEligible,
		"lagBytes":        st.ReplicationLagBytes,
	})
}

// readBody reads a POST body of at most maxRequestBytes, writing the error
// response on failure. A declared Content-Length sizes the buffer exactly;
// a chunked body is read through a limit, growing as it goes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return nil, false
	}
	tooLarge := func() ([]byte, bool) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request over %d bytes", maxRequestBytes))
		return nil, false
	}
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > maxRequestBytes:
		return tooLarge()
	case n >= 0:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default:
		body, err = io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		return nil, false
	}
	if len(body) > maxRequestBytes {
		return tooLarge()
	}
	return body, true
}

// readJSON decodes a POST body into dst, writing the error response on
// failure.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed JSON body: %v", err))
		return false
	}
	return true
}

// writeQueryError maps service errors onto status codes: overload to
// 429, writes on a read-only replica or a fenced (superseded) primary to
// 409 (the error names the primary that should take them), durability
// failures (WAL write failed, the mutation was not applied) to 500,
// everything else (decode/validation) to 400.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrReadOnly), errors.Is(err, ErrFenced):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorJSON{Error: err.Error()}
	var fe *plan.FieldError
	if errors.As(err, &fe) {
		resp.Field = fe.Field
	}
	writeJSON(w, status, resp)
}

// writeJSON marshals before the status line goes out, so a value
// encoding/json cannot carry (a NaN ratio, say) is a 500 that says so and
// not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorJSON{Error: "encoding response: " + err.Error()}) // a struct of strings cannot fail
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n')) // nothing to do for a client that has gone
}
