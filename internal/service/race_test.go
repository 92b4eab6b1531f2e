package service

import (
	"io"
	"sync"
	"testing"

	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// TestServiceConcurrentQueryVsRelayout is the serving-layer torture test:
// many goroutines hammer Query on one shared pool while another loop runs
// OptimizeLayouts (write lock, cache invalidation, relation swaps) and a
// third fires Inserts into a side table. Run under -race in CI. Every
// result must stay row-identical to serial direct execution — layout
// changes and scheduling interleavings are never allowed to show up in
// answers.
func TestServiceConcurrentQueryVsRelayout(t *testing.T) {
	const rows = 20_000
	queries := []plan.Node{
		DemoQuery(0.001),
		DemoQuery(0.1),
		DemoQuery(0.9),
		plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 1, Op: expr.Lt, Val: storage.EncodeInt(50)},
			Cols:   []int{0, 1, 8},
		},
		plan.Aggregate{
			Child:   plan.Scan{Table: "R", Cols: []int{1, 2}},
			GroupBy: []int{0},
			Aggs: []expr.AggSpec{
				{Kind: expr.Count, Name: "n"},
				{Kind: expr.Max, Arg: expr.IntCol(1), Name: "hi"},
			},
		},
	}
	want := reference(t, rows, queries...)

	db := NewDemoDB(rows)
	// A side table for concurrent writes that don't disturb R's results.
	side := storage.NewBuilder(storage.NewSchema("side",
		storage.Attribute{Name: "x", Type: storage.Int64},
		storage.Attribute{Name: "y", Type: storage.Int64},
	))
	side.SetInts(0, []int64{1})
	side.SetInts(1, []int64{2})
	db.CreateTable(side)
	DemoWorkload(db)

	s := New(db, Config{Workers: 4, MaxInFlight: 16})
	defer s.Close()

	const (
		readers   = 8
		perReader = 30
		relayouts = 10
		inserts   = 20
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				qi := (r + i) % len(queries)
				res, err := s.Query(queries[qi])
				if err != nil {
					t.Errorf("reader %d query %d: %v", r, qi, err)
					return
				}
				if !result.Equal(res, want[qi]) {
					t.Errorf("reader %d query %d: result differs from serial direct execution", r, qi)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < relayouts; i++ {
			s.OptimizeLayouts()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ins := plan.Insert{Table: "side", Rows: [][]storage.Word{
			{storage.EncodeInt(7), storage.EncodeInt(8)},
		}}
		for i := 0; i < inserts; i++ {
			if _, err := s.Query(ins); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Tables()
			s.Stats()
			_ = s.Metrics().WriteJSON(io.Discard)
		}
	}()
	wg.Wait()

	// The side table absorbed every insert exactly once.
	res, err := s.Query(plan.Aggregate{
		Child: plan.Scan{Table: "side", Cols: []int{0}},
		Aggs:  []expr.AggSpec{{Kind: expr.Count, Name: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.DecodeInt(res.Rows[0][0]); got != 1+inserts {
		t.Fatalf("side table rows = %d, want %d", got, 1+inserts)
	}
}
