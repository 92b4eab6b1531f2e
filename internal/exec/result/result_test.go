package result

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
)

func mkSet(rows ...[]storage.Word) *Set {
	s := New([]plan.Column{{Name: "a", Type: storage.Int64}, {Name: "b", Type: storage.Int64}})
	for _, r := range rows {
		s.Append(r)
	}
	return s
}

func w(v int64) storage.Word { return storage.EncodeInt(v) }

func TestEqualAndUnordered(t *testing.T) {
	a := mkSet([]storage.Word{w(1), w(2)}, []storage.Word{w(3), w(4)})
	b := mkSet([]storage.Word{w(3), w(4)}, []storage.Word{w(1), w(2)})
	if Equal(a, b) {
		t.Error("different order must not be Equal")
	}
	if !EqualUnordered(a, b) {
		t.Error("same rows must be EqualUnordered")
	}
	c := mkSet([]storage.Word{w(1), w(2)})
	if EqualUnordered(a, c) {
		t.Error("different cardinality must differ")
	}
	d := mkSet([]storage.Word{w(1), w(2)}, []storage.Word{w(3), w(5)})
	if EqualUnordered(a, d) {
		t.Error("different values must differ")
	}
}

func TestSortedIsCanonical(t *testing.T) {
	a := mkSet([]storage.Word{w(3), w(0)}, []storage.Word{w(-1), w(9)}, []storage.Word{w(3), w(-2)})
	s := a.Sorted()
	if storage.DecodeInt(s.Rows[0][0]) != -1 {
		t.Error("sorted order wrong (encoded words must sort signed)")
	}
	if storage.DecodeInt(s.Rows[1][1]) != -2 || storage.DecodeInt(s.Rows[2][1]) != 0 {
		t.Error("ties must break on later columns")
	}
	if a.Rows[0][0] != w(3) {
		t.Error("Sorted must not mutate the receiver")
	}
}

// TestSortedDeterministicWithDuplicates: the canonical order is a total
// order, so sets holding many duplicate rows canonicalize to bit-identical
// forms regardless of the producing engine's row order.
func TestSortedDeterministicWithDuplicates(t *testing.T) {
	rowAt := func(i int) []storage.Word { return []storage.Word{w(int64(i % 3)), w(int64(i % 2))} }
	a, b := mkSet(), mkSet()
	const n = 60 // every distinct row appears 10 times
	for i := 0; i < n; i++ {
		a.Append(rowAt(i))
		b.Append(rowAt(n - 1 - i)) // reversed producer order
	}
	if !Equal(a.Sorted(), b.Sorted()) {
		t.Fatal("duplicate-heavy sets canonicalize differently")
	}
	if !EqualUnordered(a, b) {
		t.Fatal("duplicate-heavy sets must be EqualUnordered")
	}
}

func TestCompareRowsTotalOrder(t *testing.T) {
	short := []storage.Word{w(1)}
	long := []storage.Word{w(1), w(2)}
	if CompareRows(short, long) != -1 || CompareRows(long, short) != 1 {
		t.Error("shorter prefix must order first")
	}
	if CompareRows(long, long) != 0 {
		t.Error("equal rows must compare 0")
	}
}

// TestArenaRowsSurviveChunkGrowth: rows handed out before a chunk fills
// must stay intact after the arena moves to fresh chunks — the invariant
// that lets Set.Rows keep plain slice views.
func TestArenaRowsSurviveChunkGrowth(t *testing.T) {
	var a Arena
	const rows, width = 100_000, 3 // ~9x the chunk size in words
	out := make([][]storage.Word, rows)
	for i := 0; i < rows; i++ {
		r := a.NewRow(width)
		if len(r) != width {
			t.Fatalf("row %d has width %d", i, len(r))
		}
		for j := range r {
			if r[j] != 0 {
				t.Fatalf("row %d not zeroed", i)
			}
			r[j] = w(int64(i*width + j))
		}
		out[i] = r
	}
	for i, r := range out {
		for j := range r {
			if r[j] != w(int64(i*width+j)) {
				t.Fatalf("row %d word %d clobbered", i, j)
			}
		}
	}
}

// TestOneRowSetIsSmall: the first chunk is sized for the common result, an
// index lookup's row or an aggregate's, not for a scan's. With a chunk of
// arenaChunkWords from the start a one-row set cost 256 KiB.
func TestOneRowSetIsSmall(t *testing.T) {
	for _, width := range []int{6, arenaFirstChunkWords + 5} {
		s := New(make([]plan.Column, width))
		s.NewRow()[0] = w(1)
		want := max(width, arenaFirstChunkWords)
		if got := cap(s.arena.cur); got != want {
			t.Errorf("first chunk of a %d-wide set holds %d words, want %d", width, got, want)
		}
	}
	// A one-row set is three allocations: the Set, its one-element Rows and
	// the chunk, which is all but some hundred bytes of the total.
	cols := make([]plan.Column, 6)
	var s *Set
	if allocs := testing.AllocsPerRun(100, func() { s = New(cols); s.NewRow() }); allocs > 3 {
		t.Errorf("a one-row set takes %.0f allocations, want at most 3", allocs)
	}
	if bytes := 8*cap(s.arena.cur) + 256; bytes >= 2048 {
		t.Errorf("a one-row set allocates about %d bytes, want under 2 KiB", bytes)
	}
}

// TestArenaGrowthCostsFewChunks: doubling from the small first chunk to the
// cap may cost a large result only a handful of allocations more than
// starting at the cap did (BenchmarkScanMaterialize's shape: 1M rows of 4).
func TestArenaGrowthCostsFewChunks(t *testing.T) {
	const rows, width = 1_000_000, 4
	atCap := (rows*width + arenaChunkWords - 1) / arenaChunkWords
	got := testing.AllocsPerRun(1, func() {
		var a Arena
		for i := 0; i < rows; i++ {
			a.NewRow(width)
		}
	})
	if int(got) > atCap+12 {
		t.Errorf("%d rows of %d words took %.0f chunks, want at most %d+12", rows, width, got, atCap)
	}
}

// TestArenaOversizedRow: a row wider than the chunk gets its own chunk.
func TestArenaOversizedRow(t *testing.T) {
	var a Arena
	big := a.NewRow(arenaChunkWords + 17)
	if len(big) != arenaChunkWords+17 {
		t.Fatalf("oversized row length %d", len(big))
	}
	small := a.NewRow(2)
	small[0] = w(1)
	if big[len(big)-1] != 0 {
		t.Error("oversized row clobbered by later allocation")
	}
}

// TestArenaRowAppendIsolated: appending to a returned row must not write
// into the next row (capacity is capped per row).
func TestArenaRowAppendIsolated(t *testing.T) {
	var a Arena
	r1 := a.NewRow(2)
	r2 := a.NewRow(2)
	r2[0], r2[1] = w(5), w(6)
	_ = append(r1, w(99)) //nolint:staticcheck // the append must copy, not clobber r2
	if r2[0] != w(5) || r2[1] != w(6) {
		t.Error("append to a row view clobbered its neighbour")
	}
}

func TestSetNewRow(t *testing.T) {
	s := New([]plan.Column{{Name: "a", Type: storage.Int64}, {Name: "b", Type: storage.Int64}})
	r := s.NewRow()
	r[0], r[1] = w(1), w(2)
	r = s.NewRow()
	r[0], r[1] = w(3), w(4)
	want := mkSet([]storage.Word{w(1), w(2)}, []storage.Word{w(3), w(4)})
	if !Equal(s, want) {
		t.Fatalf("arena-built set differs:\n%s", s.Format(nil, 10))
	}
}

func TestFormat(t *testing.T) {
	s := New([]plan.Column{
		{Name: "n", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
		{Name: "x", Type: storage.Int64},
	})
	d := storage.BuildDict([]string{"hello"})
	code, _ := d.Code("hello")
	s.Append([]storage.Word{w(-7), storage.EncodeFloat(2.5), code, storage.Null})
	out := s.Format([]*storage.Dict{nil, nil, d, nil}, 10)
	for _, want := range []string{"n | f | s | x", "-7", "2.5", "hello", "NULL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	// Truncation note.
	for i := 0; i < 5; i++ {
		s.Append([]storage.Word{w(int64(i)), storage.EncodeFloat(0), code, w(0)})
	}
	out = s.Format(nil, 2)
	if !strings.Contains(out, "6 rows total") {
		t.Errorf("truncated format must report total rows:\n%s", out)
	}
}
