// Package index provides the two index structures the paper's Figure 10
// experiments use: an open-addressing hash index (primary-key point
// lookups) and a red-black tree (the RB-tree on VBAP.VBELN). Both map an
// encoded key word to the row ids holding it and support incremental
// maintenance on insert, which is what the paper measures on the modifying
// query Q6. The hash index is also the table of every hash join: the
// engines build it over the join's materialized build rows (BuildHash)
// and probe it with Lookup.
package index

import (
	"fmt"

	"repro/internal/exec/par"
	"repro/internal/storage"
)

// Index is the common interface of all index structures.
type Index interface {
	// Insert registers a row id under key.
	Insert(key storage.Word, row int32)
	// Lookup appends all row ids stored under key to dst and returns it.
	Lookup(key storage.Word, dst []int32) []int32
	// Len returns the number of (key,row) entries.
	Len() int
	// Kind names the structure (KindHash or KindRBTree).
	Kind() string
	// Clone returns an independent copy: inserts into the clone never
	// become visible through the original. The MVCC write path clones the
	// indexes of every table it touches, so readers of a pinned catalog
	// version keep probing an immutable structure.
	Clone() Index
}

// The index kinds: what Kind reports, what snapshots and WAL records
// store, and what New accepts.
const (
	KindHash   = "hash"
	KindRBTree = "rbtree"
)

// New returns an empty index of the named kind, sized for the expected
// entry count. Kinds arrive from snapshot files and WAL records, so an
// unknown one is an error, not a panic.
func New(kind string, expected int) (Index, error) {
	switch kind {
	case KindHash:
		return NewHashIndex(expected), nil
	case KindRBTree:
		return NewRBTree(), nil
	}
	return nil, fmt.Errorf("index: unknown kind %q", kind)
}

// BuildOn inserts every row of an existing relation attribute into idx
// and returns it. An empty hash index is filled as morsels on opt's
// workers by the build BuildHash runs (HashIndex.build); any other index
// is filled on the calling goroutine. Either way Lookup returns each
// key's rows in ascending order.
func BuildOn(idx Index, rel *storage.Relation, attr int, opt par.Options) Index {
	acc := rel.Access(attr)
	if h, ok := idx.(*HashIndex); ok && h.Len() == 0 {
		h.build(acc, rel.Rows(), opt)
		return h
	}
	for row := 0; row < rel.Rows(); row++ {
		idx.Insert(acc.At(row), int32(row))
	}
	return idx
}
