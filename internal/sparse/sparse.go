// Package sparse implements the storage extension the paper's conclusion
// proposes for sparse data: "the storage as dense key-value lists is an
// option that may save storage space and processing effort". A Store keeps
// only the non-null cells of a wide, sparsely populated relation (the CNET
// catalog shape) in two redundant dense representations:
//
//   - column-major: per attribute, parallel (row id, value) arrays sorted
//     by row id — scans and aggregations over one attribute touch exactly
//     the attribute's populated cells;
//   - row-major: per tuple, the adjacency list of its populated
//     (attribute, value) pairs — a "select *" detail lookup reads one
//     contiguous run.
//
// The ablation benchmarks compare this representation against NSM/DSM/PDSM
// on the CNET workload for footprint, scan and point-lookup cost.
package sparse

import (
	"repro/internal/storage"
)

// Cell is one populated (attribute, value) pair of a tuple.
type Cell struct {
	Attr  int32
	Value storage.Word
}

// Store is a dense key-value representation of a sparse relation.
type Store struct {
	Schema *Schema

	// Column-major lists.
	colRows [][]int32
	colVals [][]storage.Word

	// Row-major adjacency.
	rowOff   []int32 // len rows+1
	rowCells []Cell
}

// Schema mirrors the source relation's schema.
type Schema = storage.Schema

// FromRelation extracts the non-null cells of rel.
func FromRelation(rel *storage.Relation) *Store {
	n := rel.Rows()
	w := rel.Schema.Width()
	s := &Store{
		Schema:  rel.Schema,
		colRows: make([][]int32, w),
		colVals: make([][]storage.Word, w),
		rowOff:  make([]int32, n+1),
	}
	// First pass: count per row for the adjacency offsets.
	counts := make([]int32, n)
	for attr := 0; attr < w; attr++ {
		a := rel.Access(attr)
		for row := 0; row < n; row++ {
			if a.Data[row*a.Stride+a.Off] != storage.Null {
				counts[row]++
			}
		}
	}
	total := int32(0)
	for row := 0; row < n; row++ {
		s.rowOff[row] = total
		total += counts[row]
	}
	s.rowOff[n] = total
	s.rowCells = make([]Cell, total)
	fill := make([]int32, n)
	copy(fill, s.rowOff[:n])

	for attr := 0; attr < w; attr++ {
		a := rel.Access(attr)
		var rows []int32
		var vals []storage.Word
		for row := 0; row < n; row++ {
			v := a.Data[row*a.Stride+a.Off]
			if v == storage.Null {
				continue
			}
			rows = append(rows, int32(row))
			vals = append(vals, v)
			s.rowCells[fill[row]] = Cell{Attr: int32(attr), Value: v}
			fill[row]++
		}
		s.colRows[attr] = rows
		s.colVals[attr] = vals
	}
	return s
}

// Bytes returns the approximate heap footprint of the store's data arrays.
func (s *Store) Bytes() int64 {
	var b int64
	for attr := range s.colRows {
		b += int64(len(s.colRows[attr]))*4 + int64(len(s.colVals[attr]))*8
	}
	b += int64(len(s.rowOff))*4 + int64(len(s.rowCells))*12
	return b
}

// SumAttr is the fused aggregate over one attribute's populated cells.
func (s *Store) SumAttr(attr int) (sum int64, count int64) {
	vals := s.colVals[attr]
	for _, v := range vals {
		sum += storage.DecodeInt(v)
		count++
	}
	return sum, count
}

// RowCells returns the populated cells of one tuple (the "select *" path).
func (s *Store) RowCells(row int) []Cell {
	return s.rowCells[s.rowOff[row]:s.rowOff[row+1]]
}

// MaterializeRow expands a tuple back to the dense width (Null-padded).
func (s *Store) MaterializeRow(row int, dst []storage.Word) []storage.Word {
	w := s.Schema.Width()
	if cap(dst) < w {
		dst = make([]storage.Word, w)
	}
	dst = dst[:w]
	for i := range dst {
		dst[i] = storage.Null
	}
	for _, c := range s.RowCells(row) {
		dst[c.Attr] = c.Value
	}
	return dst
}
