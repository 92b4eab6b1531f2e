package service

import (
	"errors"
	"testing"
	"time"

	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

const testRows = 20_000

// Query is QueryEx without options, the form most tests call.
func (s *DB) Query(p plan.Node) (*result.Set, error) {
	res, _, err := s.QueryEx(p, QueryOpts{})
	return res, err
}

// reference runs p on a pristine serial copy of the demo database.
func reference(t testing.TB, rows int, ps ...plan.Node) []*result.Set {
	t.Helper()
	db := NewDemoDB(rows)
	out := make([]*result.Set, len(ps))
	for i, p := range ps {
		out[i] = db.Query(p)
	}
	return out
}

func TestServiceQueryMatchesDirect(t *testing.T) {
	queries := []plan.Node{
		DemoQuery(0.0001),
		DemoQuery(0.1),
		DemoQuery(1.0),
		plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(500)},
			Cols:   []int{0, 5, 15},
		},
	}
	want := reference(t, testRows, queries...)

	s := New(NewDemoDB(testRows), Config{Workers: 4})
	defer s.Close()
	for i, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !result.Equal(res, want[i]) {
			t.Fatalf("query %d: service result differs from direct serial execution", i)
		}
	}
}

// TestServicePlanCacheShapes: constant-varying repeats of one query create
// one cache entry each but collapse to a single normalized shape — the
// db_plan_cache_entries / db_plan_cache_shapes signal for parameter-sweep
// cache blowup.
func TestServicePlanCacheShapes(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 1, PlanCacheSize: 8})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Query(DemoQuery(float64(i+1) * 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(plan.Scan{Table: "R", Cols: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if entries, shapes := planCacheCounts(s); entries != 6 || shapes != 2 {
		t.Fatalf("cache size=%d shapes=%d, want 6 entries over 2 shapes", entries, shapes)
	}
	// Eviction must release shape counts: 8 more sweep variants overflow
	// the 8-entry LRU; every resident entry is a sweep variant afterwards.
	for i := 0; i < 8; i++ {
		if _, err := s.Query(DemoQuery(float64(i+1) * 0.001)); err != nil {
			t.Fatal(err)
		}
	}
	if entries, shapes := planCacheCounts(s); entries != 8 || shapes != 1 {
		t.Fatalf("after eviction: size=%d shapes=%d, want 8 entries over 1 shape", entries, shapes)
	}
}

// planCacheCounts reads the plan cache's entry and shape counts.
func planCacheCounts(s *DB) (entries, shapes int) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	return s.plans.ll.Len(), len(s.plans.shapes)
}

func TestServicePlanCache(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 2})
	defer s.Close()

	q := DemoQuery(0.01)
	for i := 0; i < 3; i++ {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PlanCacheMiss != 1 || st.PlanCacheHits != 2 {
		t.Fatalf("cache misses=%d hits=%d, want 1 and 2", st.PlanCacheMiss, st.PlanCacheHits)
	}

	// A catalog change must drop the compiled form.
	DemoWorkload(s.Unwrap())
	s.OptimizeLayouts()
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlanCacheMiss != 2 {
		t.Fatalf("cache misses after relayout = %d, want 2", st.PlanCacheMiss)
	}

	// Equivalent plans arriving as JSON share the cache entry.
	data, err := plan.MarshalNode(q)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := plan.UnmarshalNode(data)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().PlanCacheHits
	if _, err := s.Query(decoded); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().PlanCacheHits; after != before+1 {
		t.Fatalf("JSON query did not hit the cache (hits %d -> %d)", before, after)
	}
}

func TestServicePrepareExec(t *testing.T) {
	want := reference(t, testRows, DemoQuery(0.05))[0]

	s := New(NewDemoDB(testRows), Config{Workers: 2})
	defer s.Close()

	st, err := s.Prepare(DemoQuery(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cols) != 4 {
		t.Fatalf("prepared cols = %d, want 4", len(st.Cols))
	}
	for i := 0; i < 2; i++ {
		res, err := s.Exec(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !result.Equal(res, want) {
			t.Fatal("prepared execution differs from direct serial execution")
		}
	}
	// Statements survive a relayout: the next Exec recompiles.
	DemoWorkload(s.Unwrap())
	s.OptimizeLayouts()
	res, err := s.Exec(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(res, want) {
		t.Fatal("prepared execution after relayout differs")
	}

	if _, err := s.Exec("nope"); err == nil {
		t.Fatal("unknown statement id did not error")
	}
	if !s.CloseStmt(st.ID) || s.CloseStmt(st.ID) {
		t.Fatal("CloseStmt bookkeeping wrong")
	}
	if _, err := s.Exec(st.ID); err == nil {
		t.Fatal("closed statement still executes")
	}
}

func TestServiceValidation(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 1})
	defer s.Close()

	_, err := s.Query(plan.Scan{Table: "missing", Cols: []int{0}})
	var fe *plan.FieldError
	if !errors.As(err, &fe) || fe.Field != "plan.table" {
		t.Fatalf("unknown table error = %v, want FieldError at plan.table", err)
	}
	if _, err := s.Prepare(plan.Scan{Table: "R", Cols: []int{99}}); err == nil {
		t.Fatal("Prepare accepted an out-of-range column")
	}
	if s.metrics.failed.Value() == 0 {
		t.Fatal("failed counter not incremented")
	}
}

func TestServiceInsert(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 2})
	defer s.Close()

	countPlan := plan.Aggregate{
		Child: plan.Scan{Table: "R", Cols: []int{0}},
		Aggs:  []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
	}
	res, err := s.Query(countPlan)
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.DecodeInt(res.Rows[0][0]); got != testRows {
		t.Fatalf("count = %d, want %d", got, testRows)
	}

	row := make([]storage.Word, 16)
	for i := range row {
		row[i] = storage.EncodeInt(int64(i))
	}
	if _, err := s.Query(plan.Insert{Table: "R", Rows: [][]storage.Word{row}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Query(countPlan)
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.DecodeInt(res.Rows[0][0]); got != testRows+1 {
		t.Fatalf("count after insert = %d, want %d", got, testRows+1)
	}
	if _, err := s.Prepare(plan.Insert{Table: "R", Rows: [][]storage.Word{row}}); err == nil {
		t.Fatal("Prepare accepted an insert plan")
	}
}

func TestServiceAdmissionControl(t *testing.T) {
	s := New(NewDemoDB(1_000), Config{Workers: 1, MaxInFlight: 2, QueueTimeout: 30 * time.Millisecond})
	defer s.Close()

	// Fill both slots so the next query has to queue and time out.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	start := time.Now()
	_, err := s.Query(DemoQuery(0.01))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("rejected after %v, before the queue timeout", waited)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Queued != 1 {
		t.Fatalf("queued=%d rejected=%d, want 1 and 1", st.Queued, st.Rejected)
	}

	// Free a slot: the same query is admitted and runs.
	<-s.sem
	if _, err := s.Query(DemoQuery(0.01)); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
}

func TestServiceInvalidPlansNotCached(t *testing.T) {
	s := New(NewDemoDB(1_000), Config{Workers: 1})
	defer s.Close()

	for i := 0; i < 5; i++ {
		if _, err := s.Query(plan.Scan{Table: "R", Cols: []int{0, 99}}); err == nil {
			t.Fatal("out-of-range column accepted")
		}
	}
	s.planMu.Lock()
	cached := s.plans.ll.Len()
	s.planMu.Unlock()
	if cached != 0 {
		t.Fatalf("%d failed-validation entries pinned in the plan cache", cached)
	}
}

func TestServicePlanCacheBounded(t *testing.T) {
	s := New(NewDemoDB(1_000), Config{Workers: 1})
	defer s.Close()

	// A constant sweep produces all-distinct cache keys — the pattern the
	// cap exists for.
	for i := 0; i < defaultPlanCacheSize+16; i++ {
		q := plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(int64(i))},
			Cols:   []int{0},
		}
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s.planMu.Lock()
	cached := s.plans.ll.Len()
	s.planMu.Unlock()
	if cached > defaultPlanCacheSize {
		t.Fatalf("plan cache grew to %d entries, cap is %d", cached, defaultPlanCacheSize)
	}
	if st := s.Stats(); st.PlanEvictions != 16 {
		t.Fatalf("PlanEvictions = %d, want 16", st.PlanEvictions)
	}
}

func TestServiceStmtRegistryBounded(t *testing.T) {
	s := New(NewDemoDB(1_000), Config{Workers: 1})
	defer s.Close()

	q := DemoQuery(0.01)
	var last *Stmt
	for i := 0; i < maxStmts; i++ {
		st, err := s.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		last = st
	}
	if _, err := s.Prepare(q); err == nil {
		t.Fatalf("prepare %d succeeded past the registry cap", maxStmts)
	}
	// Closing a statement frees a slot.
	if !s.CloseStmt(last.ID) {
		t.Fatal("CloseStmt failed")
	}
	if _, err := s.Prepare(q); err != nil {
		t.Fatalf("prepare after close: %v", err)
	}
}

func TestServiceTables(t *testing.T) {
	s := New(NewDemoDB(testRows), Config{Workers: 1})
	defer s.Close()

	tables := s.Tables()
	if len(tables) != 1 || tables[0].Name != "R" {
		t.Fatalf("tables = %+v, want just R", tables)
	}
	if tables[0].Rows != testRows || len(tables[0].Attrs) != 16 {
		t.Fatalf("R reported as %d rows × %d attrs", tables[0].Rows, len(tables[0].Attrs))
	}
	if tables[0].Attrs[0].Name != "A" || tables[0].Attrs[0].Type != "int64" {
		t.Fatalf("attr 0 = %+v", tables[0].Attrs[0])
	}
}
