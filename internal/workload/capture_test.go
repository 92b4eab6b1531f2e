package workload

import (
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

func captureCatalog(t *testing.T, rows int) *plan.Catalog {
	t.Helper()
	schema := storage.NewSchema("t",
		storage.Attribute{Name: "a", Type: storage.Int64},
		storage.Attribute{Name: "b", Type: storage.Int64},
		storage.Attribute{Name: "c", Type: storage.Int64},
	)
	b := storage.NewBuilder(schema)
	col := make([]int64, rows)
	for i := range col {
		col[i] = int64(i)
	}
	b.SetInts(0, col).SetInts(1, col).SetInts(2, col)
	return plan.NewCatalog().Add(b.Build(storage.NSM(3)))
}

func TestFootprintRecord(t *testing.T) {
	cat := captureCatalog(t, 100)
	c := NewCapture(0)
	fp := c.Resolve(cat, []exec.TableAccess{{Table: "t", Attrs: []int{0, 2}, Rows: 100}},
		"shape-1", []byte(`{"op":"scan"}`), plan.Scan{Table: "t", Cols: []int{0, 2}})
	for i := 0; i < 3; i++ {
		fp.Record()
	}
	tc := c.Table("t")
	if tc == nil {
		t.Fatal("table not registered")
	}
	if got := tc.Execs(); got != 3 {
		t.Errorf("Execs = %d, want 3", got)
	}
	if got := tc.RowsScanned(); got != 300 {
		t.Errorf("RowsScanned = %d, want 300", got)
	}
	for attr, want := range []int64{3, 0, 3} {
		if got := tc.ColReads(attr); got != want {
			t.Errorf("ColReads(%d) = %d, want %d", attr, got, want)
		}
	}
	tables, shapes, evicted := c.Snapshot()
	if len(tables) != 1 || tables[0].Table != "t" || tables[0].Queries != 3 {
		t.Errorf("snapshot tables = %+v", tables)
	}
	if len(shapes) != 1 || shapes[0].Count != 3 || evicted != 0 {
		t.Errorf("snapshot shapes = %+v (evicted %d)", shapes, evicted)
	}
}

func TestNilFootprintRecords(t *testing.T) {
	var fp *Footprint
	fp.Record() // must not panic
}

func TestUnknownTableSkipped(t *testing.T) {
	cat := captureCatalog(t, 10)
	c := NewCapture(0)
	fp := c.Resolve(cat, []exec.TableAccess{{Table: "nope", Attrs: []int{0}, Rows: 10}},
		"s", nil, nil)
	fp.Record() // only the shape counts; no table registered
	if got := c.order; len(got) != 0 {
		t.Errorf("tables = %v, want none", got)
	}
}

func TestShapeRingEviction(t *testing.T) {
	cat := captureCatalog(t, 10)
	c := NewCapture(2)
	acc := []exec.TableAccess{{Table: "t", Attrs: []int{0}, Rows: 10}}
	p := plan.Scan{Table: "t", Cols: []int{0}}
	c.Resolve(cat, acc, "shape-1", nil, p).Record()
	c.Resolve(cat, acc, "shape-2", nil, p).Record()
	c.Resolve(cat, acc, "shape-3", nil, p).Record() // evicts shape-1
	_, shapes, evicted := c.Snapshot()
	if len(shapes) != 2 {
		t.Fatalf("ring holds %d shapes, want 2", len(shapes))
	}
	if evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
	for _, sh := range shapes {
		if sh.Shape == shortShape("shape-1") {
			t.Error("evicted shape still reported")
		}
	}
	// Re-resolving an evicted shape re-inserts it with a fresh count.
	c.Resolve(cat, acc, "shape-1", nil, p).Record()
	_, shapes, _ = c.Snapshot()
	found := false
	for _, sh := range shapes {
		if sh.Shape == shortShape("shape-1") {
			found = true
			if sh.Count != 1 {
				t.Errorf("re-inserted shape count = %d, want 1", sh.Count)
			}
		}
	}
	if !found {
		t.Error("re-inserted shape missing from snapshot")
	}
}

func TestMixFromCapture(t *testing.T) {
	cat := captureCatalog(t, 50)
	c := NewCapture(0)
	acc := []exec.TableAccess{{Table: "t", Attrs: []int{0, 1}, Rows: 50}}
	p1 := plan.Scan{Table: "t", Cols: []int{0, 1}}
	p2 := plan.Scan{Table: "t", Cols: []int{2}}
	fp1 := c.Resolve(cat, acc, "shape-1", nil, p1)
	fp2 := c.Resolve(cat, []exec.TableAccess{{Table: "t", Attrs: []int{2}, Rows: 50}}, "shape-2", nil, p2)
	for i := 0; i < 7; i++ {
		fp1.Record()
	}
	for i := 0; i < 3; i++ {
		fp2.Record()
	}
	mix, total := c.Mix("live")
	if total != 10 {
		t.Errorf("total executions = %d, want 10", total)
	}
	if len(mix.Queries) != 2 {
		t.Fatalf("mix has %d queries, want 2", len(mix.Queries))
	}
	if mix.Queries[0].Frequency != 7 || mix.Queries[1].Frequency != 3 {
		t.Errorf("frequencies = %v/%v, want 7/3",
			mix.Queries[0].Frequency, mix.Queries[1].Frequency)
	}
	if got := mix.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("mix.Tables = %v", got)
	}
	// A second snapshot of an unchanged capture yields the identical mix
	// (order included) — the determinism the advisor tests lean on.
	mix2, _ := c.Mix("live")
	for i := range mix.Queries {
		if mix.Queries[i].Name != mix2.Queries[i].Name || mix.Queries[i].Frequency != mix2.Queries[i].Frequency {
			t.Fatalf("mix not stable across snapshots: %+v vs %+v", mix.Queries, mix2.Queries)
		}
	}
}

func TestCaptureConcurrent(t *testing.T) {
	cat := captureCatalog(t, 10)
	c := NewCapture(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := string(rune('a' + g%4))
			fp := c.Resolve(cat, []exec.TableAccess{{Table: "t", Attrs: []int{g % 3}, Rows: 10}},
				key, nil, plan.Scan{Table: "t", Cols: []int{g % 3}})
			for i := 0; i < 1000; i++ {
				fp.Record()
			}
			c.Snapshot()
			c.Mix("x")
		}()
	}
	wg.Wait()
	tc := c.Table("t")
	if got := tc.Execs(); got != 8000 {
		t.Errorf("Execs = %d, want 8000", got)
	}
}

func TestTablesAndTouching(t *testing.T) {
	scanT := plan.Scan{Table: "t", Cols: []int{0}}
	scanU := plan.Scan{Table: "u", Cols: []int{0}}
	join := plan.HashJoin{Left: scanT, Right: scanU, LeftKey: 0, RightKey: 0}
	w := (&Workload{}).Add("a", scanT, 1).Add("b", join, 2).Add("c", scanU, 3)
	if got := w.Tables(); len(got) != 2 || got[0] != "t" || got[1] != "u" {
		t.Errorf("Tables = %v, want [t u]", got)
	}
	wt := w.Touching("t")
	if len(wt.Queries) != 2 || wt.Queries[0].Name != "a" || wt.Queries[1].Name != "b" {
		t.Errorf("Touching(t) = %+v", wt.Queries)
	}
	wu := w.Touching("u")
	if len(wu.Queries) != 2 || wu.Queries[0].Name != "b" || wu.Queries[1].Name != "c" {
		t.Errorf("Touching(u) = %+v", wu.Queries)
	}
}

func BenchmarkFootprintRecord(b *testing.B) {
	schema := make([]storage.Attribute, 16)
	for i := range schema {
		schema[i] = storage.Attribute{Name: string(rune('A' + i)), Type: storage.Int64}
	}
	sb := storage.NewBuilder(storage.NewSchema("R", schema...))
	col := make([]int64, 10)
	for a := 0; a < 16; a++ {
		sb.SetInts(a, col)
	}
	cat := plan.NewCatalog().Add(sb.Build(storage.NSM(16)))
	c := NewCapture(0)
	fp := c.Resolve(cat, []exec.TableAccess{{Table: "R", Attrs: []int{0, 1, 2, 3, 4}, Rows: 1_000_000}},
		"bench-shape", nil, plan.Scan{Table: "R", Cols: []int{0, 1, 2, 3, 4}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Record()
	}
}
