package sparse

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bench/cnet"
	"repro/internal/storage"
)

func sparseRelation(rows, attrs int, density float64, seed int64) *storage.Relation {
	names := make([]storage.Attribute, attrs)
	for i := range names {
		names[i] = storage.Attribute{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Type: storage.Int64}
	}
	schema := storage.NewSchema("s", names...)
	b := storage.NewBuilder(schema)
	rng := rand.New(rand.NewSource(seed))
	for a := 0; a < attrs; a++ {
		col := make([]storage.Word, rows)
		for r := range col {
			if rng.Float64() < density {
				col[r] = storage.EncodeInt(rng.Int63n(1000))
			} else {
				col[r] = storage.Null
			}
		}
		b.SetWords(a, col)
	}
	return b.Build(storage.NSM(attrs))
}

// valueOf looks up one cell by binary search in its attribute's rows.
func valueOf(s *Store, row, attr int) (storage.Word, bool) {
	rows := s.colRows[attr]
	i := sort.Search(len(rows), func(i int) bool { return rows[i] >= int32(row) })
	if i < len(rows) && rows[i] == int32(row) {
		return s.colVals[attr][i], true
	}
	return storage.Null, false
}

func TestRoundTripAgainstRelation(t *testing.T) {
	rel := sparseRelation(500, 20, 0.15, 1)
	s := FromRelation(rel)
	for row := 0; row < rel.Rows(); row++ {
		for attr := 0; attr < 20; attr++ {
			want := rel.Value(row, attr)
			got, present := valueOf(s, row, attr)
			if (want == storage.Null) == present {
				t.Fatalf("presence mismatch at (%d,%d)", row, attr)
			}
			if present && got != want {
				t.Fatalf("value mismatch at (%d,%d)", row, attr)
			}
		}
		dense := s.MaterializeRow(row, nil)
		for attr := 0; attr < 20; attr++ {
			if dense[attr] != rel.Value(row, attr) {
				t.Fatalf("materialized row differs at (%d,%d)", row, attr)
			}
		}
	}
}

func TestScanAndSumMatchDense(t *testing.T) {
	rel := sparseRelation(1000, 10, 0.2, 2)
	s := FromRelation(rel)
	for attr := 0; attr < 10; attr++ {
		var wantSum, wantCount int64
		a := rel.Access(attr)
		for row := 0; row < rel.Rows(); row++ {
			if v := a.At(row); v != storage.Null {
				wantSum += storage.DecodeInt(v)
				wantCount++
			}
		}
		gotSum, gotCount := s.SumAttr(attr)
		if gotSum != wantSum || gotCount != wantCount {
			t.Fatalf("attr %d: sum/count = %d/%d, want %d/%d", attr, gotSum, gotCount, wantSum, wantCount)
		}
		// An attribute's cells are kept in ascending row order.
		rows := s.colRows[attr]
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				t.Fatal("cells not in row order")
			}
		}
	}
}

func TestCellAccounting(t *testing.T) {
	rel := sparseRelation(300, 15, 0.1, 3)
	s := FromRelation(rel)
	var want int
	for row := 0; row < rel.Rows(); row++ {
		for attr := 0; attr < 15; attr++ {
			if rel.Value(row, attr) != storage.Null {
				want++
			}
		}
	}
	if len(s.rowCells) != want {
		t.Fatalf("cells = %d, want %d", len(s.rowCells), want)
	}
	var viaRows int
	for row := 0; row < len(s.rowOff)-1; row++ {
		viaRows += len(s.RowCells(row))
	}
	if viaRows != want {
		t.Fatalf("adjacency cells = %d, want %d", viaRows, want)
	}
}

// TestFootprintBeatsDenseOnSparseData: the paper's premise — for CNET-like
// sparsity the KV lists are far smaller than any dense layout.
func TestFootprintBeatsDenseOnSparseData(t *testing.T) {
	d := cnet.Generate(cnet.Config{Products: 2000, Attrs: 120, Categories: 20, MeanSparse: 6, Seed: 4})
	s := FromRelation(d.Products)
	denseBytes := int64(d.Products.Rows()) * int64(d.Products.Schema.Width()) * 8
	if s.Bytes() > denseBytes/3 {
		t.Errorf("sparse store (%d B) should be far below dense storage (%d B)", s.Bytes(), denseBytes)
	}
}

// TestPropertyRandomDensity: round trip holds across densities including
// the all-null and all-present extremes.
func TestPropertyRandomDensity(t *testing.T) {
	f := func(seed int64, densRaw uint8) bool {
		density := float64(densRaw%101) / 100
		rel := sparseRelation(100, 8, density, seed)
		s := FromRelation(rel)
		for row := 0; row < 100; row++ {
			for attr := 0; attr < 8; attr++ {
				want := rel.Value(row, attr)
				got, present := valueOf(s, row, attr)
				if present != (want != storage.Null) {
					return false
				}
				if present && got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
