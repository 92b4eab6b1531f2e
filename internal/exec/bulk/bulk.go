// Package bulk implements the MonetDB-style bulk processing engine:
// operators are precompiled primitives that process one column at a time
// in static tight loops and fully materialize every intermediate result.
// This is the CPU-efficient but materialization-heavy model of the paper's
// Figure 3: the first primitive scans the selection column and materializes
// matching positions, subsequent primitives fetch each referenced column by
// those positions into fresh buffers, and the final primitives aggregate
// the buffers. Bandwidth use grows with selectivity because of the
// materialized intermediates — the effect that makes bulk processing lose
// at high selectivities.
package bulk

import (
	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Engine is the bulk (column-at-a-time) engine.
type Engine struct{}

// New returns the engine.
func New() Engine { return Engine{} }

// Name returns "bulk".
func (Engine) Name() string { return "bulk" }

// chunk is a fully materialized intermediate: column-major storage.
type chunk struct {
	cols [][]storage.Word
	n    int
}

// Run executes the plan column-at-a-time with full materialization.
func (Engine) Run(n plan.Node, c *plan.Catalog) *result.Set {
	if ins, ok := n.(plan.Insert); ok {
		return exec.RunInsert(ins, c)
	}
	ch := eval(n, c)
	out := result.New(plan.Output(n, c))
	for row := 0; row < ch.n; row++ {
		tuple := make([]storage.Word, len(ch.cols))
		for i, col := range ch.cols {
			tuple[i] = col[row]
		}
		out.Append(tuple)
	}
	return out
}

func eval(n plan.Node, c *plan.Catalog) chunk {
	switch v := n.(type) {
	case plan.Scan:
		return evalScan(v, c)
	case plan.Select:
		child := eval(v.Child, c)
		sel := selectPositionsChunk(child, v.Pred)
		return fetchChunk(child, sel)
	case plan.Project:
		child := eval(v.Child, c)
		out := chunk{n: child.n}
		for _, e := range v.Exprs {
			out.cols = append(out.cols, evalExprColumn(e, child))
		}
		return out
	case plan.HashJoin:
		return evalJoin(v, c)
	case plan.Aggregate:
		return evalAgg(v, c)
	case plan.Sort:
		child := eval(v.Child, c)
		rows := transpose(child)
		exec.SortRows(rows, v.Keys)
		return fromRows(rows, len(child.cols))
	case plan.Limit:
		child := eval(v.Child, c)
		if child.n > v.N {
			child.n = v.N
			for i := range child.cols {
				child.cols[i] = child.cols[i][:v.N]
			}
		}
		return child
	}
	panic("bulk: unsupported plan node")
}

// evalScan materializes the matching positions column-at-a-time and then
// fetches every projected column by position.
func evalScan(v plan.Scan, c *plan.Catalog) chunk {
	rel := c.Table(v.Table)
	var sel []int32
	if acc, ok := exec.PlanIndexAccess(c, v.Table, v.Filter); ok {
		sel = c.Index(v.Table, acc.Attr).Lookup(acc.Key, nil)
		sel = refineBase(rel, sel, acc.Rest)
	} else {
		sel = selectPositionsBase(rel, v.Filter)
	}
	out := chunk{n: len(sel)}
	for _, attr := range v.Cols {
		a := rel.Access(attr)
		col := make([]storage.Word, len(sel))
		for i, row := range sel {
			col[i] = a.Data[int(row)*a.Stride+a.Off]
		}
		out.cols = append(out.cols, col)
	}
	return out
}

// selectPositionsBase evaluates the filter against a base table,
// conjunct-by-conjunct: each simple conjunct is applied as one tight loop
// over exactly one attribute (first over all rows, then refining the
// position list). Complex disjunctions fall back to row-wise
// interpretation over the surviving positions.
func selectPositionsBase(rel *storage.Relation, filter expr.Pred) []int32 {
	n := rel.Rows()
	conjs := conjuncts(filter)
	var sel []int32
	first := true
	for _, p := range conjs {
		switch v := p.(type) {
		case expr.Cmp:
			sel = applyCmp(rel.Access(v.Attr), v.Op, v.Val, sel, first, n)
		case expr.Between:
			sel = applyBetween(rel.Access(v.Attr), v.Lo, v.Hi, sel, first, n)
		case expr.InSet:
			sel = applyInSet(rel.Access(v.Attr), v.Set, sel, first, n)
		case expr.NotNull:
			sel = applyCmp(rel.Access(v.Attr), expr.Ne, storage.Null, sel, first, n)
		default:
			sel = applyGeneric(func(row int32) bool {
				return expr.EvalPred(p, func(a int) storage.Word { return rel.Value(int(row), a) })
			}, sel, first, n)
		}
		first = false
	}
	if first {
		// No filter: all positions.
		sel = make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	return sel
}

func refineBase(rel *storage.Relation, sel []int32, p expr.Pred) []int32 {
	if p == nil {
		return sel
	}
	out := sel[:0]
	for _, row := range sel {
		if expr.EvalPred(p, func(a int) storage.Word { return rel.Value(int(row), a) }) {
			out = append(out, row)
		}
	}
	return out
}

func conjuncts(p expr.Pred) []expr.Pred {
	switch v := p.(type) {
	case nil:
		return nil
	case expr.True:
		return nil
	case expr.And:
		return v.Preds
	default:
		return []expr.Pred{p}
	}
}

// applyCmp is the selection primitive: one static loop over one column.
func applyCmp(a storage.Accessor, op expr.CmpOp, val storage.Word, sel []int32, first bool, n int) []int32 {
	if first {
		out := make([]int32, 0, n/4+16)
		switch op {
		case expr.Eq:
			for row := 0; row < n; row++ {
				if a.Data[row*a.Stride+a.Off] == val {
					out = append(out, int32(row))
				}
			}
		case expr.Ne:
			for row := 0; row < n; row++ {
				if a.Data[row*a.Stride+a.Off] != val {
					out = append(out, int32(row))
				}
			}
		case expr.Lt:
			for row := 0; row < n; row++ {
				if a.Data[row*a.Stride+a.Off] < val {
					out = append(out, int32(row))
				}
			}
		case expr.Le:
			for row := 0; row < n; row++ {
				if a.Data[row*a.Stride+a.Off] <= val {
					out = append(out, int32(row))
				}
			}
		case expr.Gt:
			for row := 0; row < n; row++ {
				if a.Data[row*a.Stride+a.Off] > val {
					out = append(out, int32(row))
				}
			}
		case expr.Ge:
			for row := 0; row < n; row++ {
				if a.Data[row*a.Stride+a.Off] >= val {
					out = append(out, int32(row))
				}
			}
		}
		return out
	}
	out := sel[:0]
	for _, row := range sel {
		if op.Apply(a.Data[int(row)*a.Stride+a.Off], val) {
			out = append(out, row)
		}
	}
	return out
}

func applyBetween(a storage.Accessor, lo, hi storage.Word, sel []int32, first bool, n int) []int32 {
	if first {
		out := make([]int32, 0, n/4+16)
		for row := 0; row < n; row++ {
			w := a.Data[row*a.Stride+a.Off]
			if w >= lo && w <= hi {
				out = append(out, int32(row))
			}
		}
		return out
	}
	out := sel[:0]
	for _, row := range sel {
		w := a.Data[int(row)*a.Stride+a.Off]
		if w >= lo && w <= hi {
			out = append(out, row)
		}
	}
	return out
}

func applyInSet(a storage.Accessor, set *storage.CodeSet, sel []int32, first bool, n int) []int32 {
	if first {
		out := make([]int32, 0, n/4+16)
		for row := 0; row < n; row++ {
			if set.Contains(a.Data[row*a.Stride+a.Off]) {
				out = append(out, int32(row))
			}
		}
		return out
	}
	out := sel[:0]
	for _, row := range sel {
		if set.Contains(a.Data[int(row)*a.Stride+a.Off]) {
			out = append(out, row)
		}
	}
	return out
}

func applyGeneric(pass func(int32) bool, sel []int32, first bool, n int) []int32 {
	if first {
		out := make([]int32, 0, n/4+16)
		for row := 0; row < n; row++ {
			if pass(int32(row)) {
				out = append(out, int32(row))
			}
		}
		return out
	}
	out := sel[:0]
	for _, row := range sel {
		if pass(row) {
			out = append(out, row)
		}
	}
	return out
}

// selectPositionsChunk refines positions over a materialized chunk.
func selectPositionsChunk(ch chunk, filter expr.Pred) []int32 {
	var sel []int32
	first := true
	for _, p := range conjuncts(filter) {
		switch v := p.(type) {
		case expr.Cmp:
			sel = applyCmp(storage.Accessor{Data: ch.cols[v.Attr], Stride: 1}, v.Op, v.Val, sel, first, ch.n)
		case expr.Between:
			sel = applyBetween(storage.Accessor{Data: ch.cols[v.Attr], Stride: 1}, v.Lo, v.Hi, sel, first, ch.n)
		case expr.InSet:
			sel = applyInSet(storage.Accessor{Data: ch.cols[v.Attr], Stride: 1}, v.Set, sel, first, ch.n)
		default:
			sel = applyGeneric(func(row int32) bool {
				return expr.EvalPred(p, func(a int) storage.Word { return ch.cols[a][row] })
			}, sel, first, ch.n)
		}
		first = false
	}
	if first {
		sel = make([]int32, ch.n)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	return sel
}

func fetchChunk(ch chunk, sel []int32) chunk {
	out := chunk{n: len(sel)}
	for _, col := range ch.cols {
		dst := make([]storage.Word, len(sel))
		for i, row := range sel {
			dst[i] = col[row]
		}
		out.cols = append(out.cols, dst)
	}
	return out
}

// evalExprColumn computes a scalar expression as one materialized column,
// recursing over subexpressions with one tight loop per operator.
func evalExprColumn(e expr.Expr, ch chunk) []storage.Word {
	switch v := e.(type) {
	case expr.Col:
		return ch.cols[v.Attr]
	case expr.Const:
		col := make([]storage.Word, ch.n)
		for i := range col {
			col[i] = v.Val
		}
		return col
	case expr.Arith:
		l := evalExprColumn(v.L, ch)
		r := evalExprColumn(v.R, ch)
		out := make([]storage.Word, ch.n)
		if v.Type() == storage.Float64 {
			for i := range out {
				out[i] = arithF(v.Op, l[i], r[i])
			}
		} else {
			for i := range out {
				out[i] = arithI(v.Op, l[i], r[i])
			}
		}
		return out
	}
	panic("bulk: unknown expression")
}

func arithI(op expr.ArithOp, l, r storage.Word) storage.Word {
	if l == storage.Null || r == storage.Null {
		return storage.Null
	}
	a, b := storage.DecodeInt(l), storage.DecodeInt(r)
	switch op {
	case expr.Add:
		return storage.EncodeInt(a + b)
	case expr.Sub:
		return storage.EncodeInt(a - b)
	case expr.Mul:
		return storage.EncodeInt(a * b)
	case expr.Div:
		if b == 0 {
			return storage.EncodeInt(0)
		}
		return storage.EncodeInt(a / b)
	}
	return storage.Null
}

func arithF(op expr.ArithOp, l, r storage.Word) storage.Word {
	if l == storage.Null || r == storage.Null {
		return storage.Null
	}
	a, b := storage.DecodeFloat(l), storage.DecodeFloat(r)
	switch op {
	case expr.Add:
		return storage.EncodeFloat(a + b)
	case expr.Sub:
		return storage.EncodeFloat(a - b)
	case expr.Mul:
		return storage.EncodeFloat(a * b)
	case expr.Div:
		if b == 0 {
			return storage.EncodeFloat(0)
		}
		return storage.EncodeFloat(a / b)
	}
	return storage.Null
}

func evalJoin(v plan.HashJoin, c *plan.Catalog) chunk {
	left := eval(v.Left, c)
	right := eval(v.Right, c)
	// Build a hash index on the left key column.
	table := index.BuildHash(storage.Accessor{Data: left.cols[v.LeftKey], Stride: 1}, left.n, par.Serial())
	// Probe with the right key column, materializing the match index pair.
	var lidx, ridx []int32
	rk := right.cols[v.RightKey]
	for row := 0; row < right.n; row++ {
		matched := len(lidx)
		lidx = table.Lookup(rk[row], lidx)
		for range lidx[matched:] {
			ridx = append(ridx, int32(row))
		}
	}
	out := chunk{n: len(lidx)}
	for _, col := range left.cols {
		dst := make([]storage.Word, len(lidx))
		for i, row := range lidx {
			dst[i] = col[row]
		}
		out.cols = append(out.cols, dst)
	}
	for _, col := range right.cols {
		dst := make([]storage.Word, len(ridx))
		for i, row := range ridx {
			dst[i] = col[row]
		}
		out.cols = append(out.cols, dst)
	}
	return out
}

func evalAgg(v plan.Aggregate, c *plan.Catalog) chunk {
	child := eval(v.Child, c)
	// Assign group ids row-wise over the key columns, then aggregate each
	// aggregate column in its own loop over the materialized input.
	ids := make([]int32, child.n)
	var keyRows [][]storage.Word
	groups := map[exec.GroupKey]int32{}
	if len(v.GroupBy) == 0 {
		keyRows = append(keyRows, nil)
	} else {
		for row := 0; row < child.n; row++ {
			var k exec.GroupKey
			for i, g := range v.GroupBy {
				k[i] = child.cols[g][row]
			}
			id, ok := groups[k]
			if !ok {
				id = int32(len(keyRows))
				groups[k] = id
				kr := make([]storage.Word, len(v.GroupBy))
				for i, g := range v.GroupBy {
					kr[i] = child.cols[g][row]
				}
				keyRows = append(keyRows, kr)
			}
			ids[row] = id
		}
	}
	// One pass per aggregate: materialize its argument column, then fold it
	// group-wise. The state's argument is normalized to position 0 so the
	// fold reads the precomputed column rather than re-evaluating the
	// expression.
	states := make([][]expr.AggState, len(v.Aggs)) // [agg][group]
	for ai, spec := range v.Aggs {
		norm := spec
		var col []storage.Word
		if spec.Arg != nil {
			col = evalExprColumn(spec.Arg, child)
			norm.Arg = expr.Col{Attr: 0, Ty: spec.Arg.Type()}
		}
		sts := make([]expr.AggState, len(keyRows))
		for g := range sts {
			sts[g] = expr.NewAggState(norm)
		}
		if col == nil { // count(*)
			for row := 0; row < child.n; row++ {
				sts[ids[row]].AddValue(0)
			}
		} else {
			for row := 0; row < child.n; row++ {
				sts[ids[row]].AddValue(col[row])
			}
		}
		states[ai] = sts
	}
	out := chunk{n: len(keyRows)}
	for i := range v.GroupBy {
		colVals := make([]storage.Word, len(keyRows))
		for g, kr := range keyRows {
			colVals[g] = kr[i]
		}
		out.cols = append(out.cols, colVals)
	}
	for ai := range v.Aggs {
		colVals := make([]storage.Word, len(keyRows))
		for g := range keyRows {
			colVals[g] = states[ai][g].Result()
		}
		out.cols = append(out.cols, colVals)
	}
	return out
}

func transpose(ch chunk) [][]storage.Word {
	rows := make([][]storage.Word, ch.n)
	for r := 0; r < ch.n; r++ {
		row := make([]storage.Word, len(ch.cols))
		for i, col := range ch.cols {
			row[i] = col[r]
		}
		rows[r] = row
	}
	return rows
}

func fromRows(rows [][]storage.Word, width int) chunk {
	out := chunk{n: len(rows)}
	for i := 0; i < width; i++ {
		col := make([]storage.Word, len(rows))
		for r, row := range rows {
			col[r] = row[i]
		}
		out.cols = append(out.cols, col)
	}
	return out
}
