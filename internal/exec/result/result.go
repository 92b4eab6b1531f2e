// Package result provides the engine-independent result set all four
// execution engines produce. Differential tests compare result sets across
// engines and storage layouts for equality after canonical ordering.
package result

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/storage"
)

// arenaChunkWords caps the arena's allocation unit: 32K words (256 KB)
// amortizes one heap allocation over thousands of rows while staying small
// enough that a mostly-empty final chunk wastes little.
const arenaChunkWords = 32 * 1024

// arenaFirstChunkWords sizes the first chunk: most result sets are an
// index lookup's row or an aggregate's few, and a 256 KB chunk made and
// cleared for one row was the dearest thing such a query did. Chunks
// double from here to the cap, so a large result pays eight small
// allocations more than it would starting at the cap.
const arenaFirstChunkWords = 128

// Arena carves row storage out of contiguous word chunks, replacing the
// one-heap-slice-per-row pattern on the engines' emit paths. Rows are
// sub-slices of a chunk; a chunk is never reallocated once rows point into
// it (a fresh chunk is started instead), so views stay valid for the life
// of the result. The zero value is ready to use. An Arena is not
// goroutine-safe: parallel engines keep one per worker.
type Arena struct {
	cur  []storage.Word // current chunk, carved by reslicing up to cap
	next int            // words in the next chunk; 0 before the first
}

// NewRow returns a zeroed width-long slice backed by the arena.
func (a *Arena) NewRow(width int) []storage.Word {
	if cap(a.cur)-len(a.cur) < width {
		size := max(a.next, arenaFirstChunkWords, width)
		a.cur = make([]storage.Word, 0, size)
		a.next = min(2*size, arenaChunkWords)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+width]
	// Chunk memory comes from make and every word is carved exactly once,
	// so the returned row is zeroed without an explicit clear. The view's
	// capacity is capped so appending to a row cannot clobber its
	// neighbour.
	return a.cur[off : off+width : off+width]
}

// Set is a materialized query result: column metadata plus word-encoded
// rows. Rows appended through NewRow share the set's arena, and an engine
// may lay rows in chunks the set keeps for recycling (Chunk, RowViews);
// Rows remains a plain [][]Word of views, so consumers (differential
// tests, hash-join builds) are unaffected by where the words live.
type Set struct {
	Cols  []plan.Column
	Rows  [][]storage.Word
	arena Arena
	kept  atomic.Pointer[kept] // recycled memory holding the rows; nil until the first buffer
}

// New creates a result set with the given columns.
func New(cols []plan.Column) *Set {
	return &Set{Cols: cols}
}

// Append adds one row (taking ownership of the slice).
func (s *Set) Append(row []storage.Word) {
	s.Rows = append(s.Rows, row)
}

// NewRow appends one arena-backed row of the set's arity and returns it
// for the caller to fill — the allocation-free emit path.
func (s *Set) NewRow() []storage.Word {
	row := s.arena.NewRow(len(s.Cols))
	s.Rows = append(s.Rows, row)
	return row
}

// Len returns the number of rows.
func (s *Set) Len() int { return len(s.Rows) }

// Sorted returns a copy whose rows are in canonical order: full-row
// lexicographic word order with shorter-prefix rows first — a total order,
// stably applied, so the canonical form is deterministic even for sets
// holding duplicate rows. Differential tests rely on this to compare
// engines that produce rows in different orders.
func (s *Set) Sorted() *Set {
	out := &Set{Cols: s.Cols, Rows: make([][]storage.Word, len(s.Rows))}
	copy(out.Rows, s.Rows)
	sort.SliceStable(out.Rows, func(i, j int) bool { return CompareRows(out.Rows[i], out.Rows[j]) < 0 })
	return out
}

// CompareRows is the total order behind canonical result comparison:
// lexicographic over the shared prefix, ties broken by length. Equal rows
// (and only equal rows) compare 0, so sorting by it leaves no
// engine-dependent freedom in the canonical order.
func CompareRows(a, b []storage.Word) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// Equal reports whether two result sets hold identical rows in identical
// order with the same arity.
func Equal(a, b *Set) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// EqualUnordered compares two result sets ignoring row order.
func EqualUnordered(a, b *Set) bool {
	return Equal(a.Sorted(), b.Sorted())
}

// Format renders the set for human consumption, decoding values by column
// type; string columns are decoded through dicts, which maps dictionary
// codes back to values when the column came straight from a base table.
func (s *Set) Format(dicts []*storage.Dict, maxRows int) string {
	var b strings.Builder
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	n := len(s.Rows)
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for r := 0; r < n; r++ {
		for i, w := range s.Rows[r] {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(formatWord(w, s.Cols[i].Type, dictAt(dicts, i)))
		}
		b.WriteByte('\n')
	}
	if n < len(s.Rows) {
		fmt.Fprintf(&b, "... (%d rows total)\n", len(s.Rows))
	}
	return b.String()
}

func dictAt(dicts []*storage.Dict, i int) *storage.Dict {
	if i < len(dicts) {
		return dicts[i]
	}
	return nil
}

func formatWord(w storage.Word, t storage.Type, d *storage.Dict) string {
	if w == storage.Null {
		return "NULL"
	}
	switch t {
	case storage.Int64:
		return fmt.Sprintf("%d", storage.DecodeInt(w))
	case storage.Float64:
		return fmt.Sprintf("%.4g", storage.DecodeFloat(w))
	case storage.Bool:
		return fmt.Sprintf("%v", storage.DecodeBool(w))
	case storage.String:
		if d != nil {
			return d.Value(w)
		}
		return fmt.Sprintf("#%d", w)
	}
	return fmt.Sprintf("%d", w)
}
