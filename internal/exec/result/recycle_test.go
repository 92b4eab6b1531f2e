package result

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
)

// TestReleasedChunksAreReused: once a set is released, the next set's
// large chunks and row views are the same memory, so a steady stream of
// large results allocates only each set's bookkeeping. Small ones, and
// any of a nil set, are made as before.
func TestReleasedChunksAreReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	cols := make([]plan.Column, 8)
	run := func() {
		s := New(cols)
		c := s.Chunk(5*minRecycled + 3) // sizes between classes, as a scan's last chunk and its views
		c = append(c, storage.Word(1))
		views := s.RowViews(3*minRecycled + 5)
		views[0] = c
		s.Release()
	}
	run()
	// The set, what it keeps and its list of chunks.
	if allocs := testing.AllocsPerRun(100, run); allocs > 3 {
		t.Errorf("a released set's successor takes %.1f allocations, want at most 3", allocs)
	}

	s := New(cols)
	if c := s.Chunk(minRecycled - 1); cap(c) != minRecycled-1 || s.kept.Load() != nil {
		t.Errorf("a small chunk has room for %d words, or is kept", cap(c))
	}
	if c := s.Chunk(64*minRecycled + 1); cap(c) != 64*minRecycled+1 || len(s.kept.Load().chunks) != 1 {
		t.Errorf("a chunk of %d words no free list holds has room for %d, want as many, and the set keeps %d chunks, want 1", 64*minRecycled+1, cap(c), len(s.kept.Load().chunks))
	}
	var none *Set
	if c := none.Chunk(4 * minRecycled); cap(c) != 4*minRecycled {
		t.Errorf("a nil set's chunk has room for %d words, want %d", cap(c), 4*minRecycled)
	}
	if v := none.RowViews(3); len(v) != 3 {
		t.Errorf("a nil set's row views number %d, want 3", len(v))
	}
	s.Release()
	if s.Rows != nil || s.kept.Load() != nil {
		t.Error("a released set still holds rows or chunks")
	}
}
