// Package exec holds the execution-engine interface and the helpers shared
// by all engines: insert execution with index maintenance, index-access
// planning for scans, sorting, and group-key encoding. The four engines in
// the subpackages differ deliberately in their per-tuple control flow —
// that difference is the paper's subject — but share these
// semantics-defining pieces so differential tests compare like with like.
package exec

import (
	"fmt"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/sortpar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Engine executes logical plans against a catalog.
type Engine interface {
	Name() string
	Run(n plan.Node, c *plan.Catalog) *result.Set
}

// RunInsert appends the tuples of v to the table and maintains every
// registered index; all engines share this path (the paper's Q6
// measurements differ only in the scan-side processing model).
func RunInsert(v plan.Insert, c *plan.Catalog) *result.Set {
	width := c.Table(v.Table).Schema.Width()
	for _, row := range v.Rows {
		if len(row) != width {
			panic(fmt.Sprintf("exec: insert of %d values into width-%d table %s", len(row), width, v.Table))
		}
	}
	return AppendRows(c, v.Table, storage.Flatten(v.Rows))
}

// AppendRows appends tuples given row-major in schema attribute order to
// the table with one storage.Relation.AppendRows call, adds them to every
// registered index, and returns an insert's one-row count result. Inserts,
// bulk-load batches, WAL replay and replica apply all append through it.
func AppendRows(c *plan.Catalog, table string, words []storage.Word) *result.Set {
	rel := c.Table(table)
	width := rel.Schema.Width()
	first := rel.AppendRows(words)
	n := len(words) / width
	for attr := 0; attr < width; attr++ {
		if idx := c.Index(table, attr); idx != nil {
			for i := 0; i < n; i++ {
				idx.Insert(words[i*width+attr], int32(first+i))
			}
		}
	}
	out := result.New(plan.Output(plan.Insert{Table: table}, c))
	out.Append([]storage.Word{storage.EncodeInt(int64(n))})
	return out
}

// IndexAccess describes an index-satisfiable scan: the equality key on an
// indexed attribute and the residual predicate to apply to fetched rows.
type IndexAccess struct {
	Attr int
	Key  storage.Word
	Rest expr.Pred
}

// PlanIndexAccess inspects a scan filter and returns an index access path
// if the filter is an equality (or a conjunction containing one) on an
// attribute with a registered index. This is the whole "planner": the
// paper's index experiments toggle index use by registering or omitting
// indexes in the catalog.
func PlanIndexAccess(c *plan.Catalog, table string, filter expr.Pred) (IndexAccess, bool) {
	switch v := filter.(type) {
	case expr.Cmp:
		if v.Op == expr.Eq && c.Index(table, v.Attr) != nil {
			return IndexAccess{Attr: v.Attr, Key: v.Val, Rest: nil}, true
		}
	case expr.And:
		for i, child := range v.Preds {
			cmp, ok := child.(expr.Cmp)
			if !ok || cmp.Op != expr.Eq || c.Index(table, cmp.Attr) == nil {
				continue
			}
			rest := make([]expr.Pred, 0, len(v.Preds)-1)
			rest = append(rest, v.Preds[:i]...)
			rest = append(rest, v.Preds[i+1:]...)
			return IndexAccess{Attr: cmp.Attr, Key: cmp.Val, Rest: expr.Conj(rest...)}, true
		}
	}
	return IndexAccess{}, false
}

// SortRows orders rows in place by the sort keys, stably (encoded words
// are order-preserving for every type). The serial baseline engines
// (volcano, bulk, hyrise) sort through it; it is sortpar.Sort under
// serial options, the order jit's parallel sort reproduces for any
// worker count.
func SortRows(rows [][]storage.Word, keys []plan.SortKey) {
	sortpar.Sort(rows, keys, par.Serial())
}

// MaxGroupCols bounds the group-by arity of the fixed-size group key.
// It aliases plan.MaxGroupCols, which plan.Check enforces, so validated
// plans can never overrun the key array.
const MaxGroupCols = plan.MaxGroupCols

// GroupKey is a fixed-size composite key for hash aggregation.
type GroupKey [MaxGroupCols]storage.Word

// MakeGroupKey builds the composite key from the group columns of a row.
func MakeGroupKey(row []storage.Word, groupBy []int) GroupKey {
	var k GroupKey
	for i, g := range groupBy {
		k[i] = row[g]
	}
	return k
}
