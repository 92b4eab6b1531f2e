// Package hyrise implements the comparator processing model of the paper's
// Figure 9: a bulk-oriented, partition-at-a-time processor that — unlike
// the MonetDB-style bulk engine — accesses every value through per-
// attribute accessor function pointers and evaluates predicates through
// compiled predicate closures, one call per value. The paper describes
// HYRISE this way: "HYRISE uses a bulk-oriented model but still relies on
// function calls to process multiple attributes within one partition. It
// therefore suffers from the same CPU inefficiency as the Volcano model."
//
// The engine shares the bulk engine's operator structure (materialized
// positions, fetch-by-position, column-wise aggregation) so that the only
// systematic difference to package bulk is the per-value dynamic dispatch —
// the CPU-efficiency dimension the paper isolates.
package hyrise

import (
	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Engine is the HYRISE-style partition-bulk engine.
type Engine struct{}

// New returns the engine.
func New() Engine { return Engine{} }

// Name returns "hyrise".
func (Engine) Name() string { return "hyrise" }

// getter is the per-attribute accessor function pointer.
type getter func(row int32) storage.Word

// tester is a compiled predicate over one value.
type tester func(w storage.Word) bool

// chunk is a materialized intermediate with closure-based column access.
type chunk struct {
	cols [][]storage.Word
	n    int
}

func (ch chunk) getter(col int) getter {
	data := ch.cols[col]
	return func(row int32) storage.Word { return data[row] }
}

func baseGetter(rel *storage.Relation, attr int) getter {
	a := rel.Access(attr)
	return func(row int32) storage.Word { return a.Data[int(row)*a.Stride+a.Off] }
}

// Run executes the plan partition-at-a-time with function-call access.
func (Engine) Run(n plan.Node, c *plan.Catalog) *result.Set {
	if ins, ok := n.(plan.Insert); ok {
		return exec.RunInsert(ins, c)
	}
	ch := eval(n, c)
	out := result.New(plan.Output(n, c))
	for row := 0; row < ch.n; row++ {
		tuple := make([]storage.Word, len(ch.cols))
		for i := range ch.cols {
			tuple[i] = ch.cols[i][row]
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
		sel := filterPositions(child.n, nil, predTesters(v.Pred, child.getter), rowTester(v.Pred, func(a int) getter { return child.getter(a) }))
		return fetch(child, sel)
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
		rows := make([][]storage.Word, child.n)
		for r := 0; r < child.n; r++ {
			row := make([]storage.Word, len(child.cols))
			for i := range child.cols {
				row[i] = child.cols[i][r]
			}
			rows[r] = row
		}
		exec.SortRows(rows, v.Keys)
		out := chunk{n: len(rows)}
		for i := range child.cols {
			col := make([]storage.Word, len(rows))
			for r, row := range rows {
				col[r] = row[i]
			}
			out.cols = append(out.cols, col)
		}
		return out
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
	panic("hyrise: unsupported plan node")
}

// attrTest couples an attribute getter with a value tester: evaluating one
// conjunct on one row costs two indirect calls.
type attrTest struct {
	get  getter
	test tester
}

// predTesters compiles the simple conjuncts of p into attrTests; it
// returns nil if p contains non-conjunctive structure (handled by
// rowTester instead).
func predTesters(p expr.Pred, mk func(attr int) getter) []attrTest {
	var out []attrTest
	for _, conj := range conjuncts(p) {
		switch v := conj.(type) {
		case expr.Cmp:
			op, val := v.Op, v.Val
			out = append(out, attrTest{get: mk(v.Attr), test: func(w storage.Word) bool { return op.Apply(w, val) }})
		case expr.Between:
			lo, hi := v.Lo, v.Hi
			out = append(out, attrTest{get: mk(v.Attr), test: func(w storage.Word) bool { return w >= lo && w <= hi }})
		case expr.InSet:
			set := v.Set
			out = append(out, attrTest{get: mk(v.Attr), test: set.Contains})
		case expr.NotNull:
			out = append(out, attrTest{get: mk(v.Attr), test: func(w storage.Word) bool { return w != storage.Null }})
		default:
			return nil
		}
	}
	return out
}

// rowTester is the fallback for complex predicates: full interpretation
// per row.
func rowTester(p expr.Pred, mk func(attr int) getter) func(row int32) bool {
	if p == nil {
		return nil
	}
	cache := map[int]getter{}
	get := func(a int) getter {
		g, ok := cache[a]
		if !ok {
			g = mk(a)
			cache[a] = g
		}
		return g
	}
	return func(row int32) bool {
		return expr.EvalPred(p, func(a int) storage.Word { return get(a)(row) })
	}
}

func conjuncts(p expr.Pred) []expr.Pred {
	switch v := p.(type) {
	case nil, expr.True:
		return nil
	case expr.And:
		return v.Preds
	default:
		return []expr.Pred{p}
	}
}

// filterPositions materializes the positions passing all tests. Each row
// costs one getter call plus one tester call per conjunct — the per-value
// function-call overhead that defines this engine.
func filterPositions(n int, sel []int32, tests []attrTest, fallback func(int32) bool) []int32 {
	pass := func(row int32) bool {
		if tests == nil {
			if fallback == nil {
				return true
			}
			return fallback(row)
		}
		for _, t := range tests {
			if !t.test(t.get(row)) {
				return false
			}
		}
		return true
	}
	if sel == nil {
		out := make([]int32, 0, n/4+16)
		for row := int32(0); int(row) < n; row++ {
			if pass(row) {
				out = append(out, row)
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

func evalScan(v plan.Scan, c *plan.Catalog) chunk {
	rel := c.Table(v.Table)
	mk := func(attr int) getter { return baseGetter(rel, attr) }
	var sel []int32
	if acc, ok := exec.PlanIndexAccess(c, v.Table, v.Filter); ok {
		sel = c.Index(v.Table, acc.Attr).Lookup(acc.Key, nil)
		if acc.Rest != nil {
			sel = filterPositions(rel.Rows(), sel, predTesters(acc.Rest, mk), rowTester(acc.Rest, mk))
		}
	} else if v.Filter == nil {
		sel = make([]int32, rel.Rows())
		for i := range sel {
			sel[i] = int32(i)
		}
	} else {
		tests := predTesters(v.Filter, mk)
		sel = filterPositions(rel.Rows(), nil, tests, rowTester(v.Filter, mk))
	}
	out := chunk{n: len(sel)}
	for _, attr := range v.Cols {
		get := baseGetter(rel, attr)
		col := make([]storage.Word, len(sel))
		for i, row := range sel {
			col[i] = get(row)
		}
		out.cols = append(out.cols, col)
	}
	return out
}

func fetch(ch chunk, sel []int32) chunk {
	out := chunk{n: len(sel)}
	for i := range ch.cols {
		get := ch.getter(i)
		col := make([]storage.Word, len(sel))
		for j, row := range sel {
			col[j] = get(row)
		}
		out.cols = append(out.cols, col)
	}
	return out
}

// evalExprColumn materializes a scalar expression column with one closure
// call per value per operator.
func evalExprColumn(e expr.Expr, ch chunk) []storage.Word {
	val := compileExpr(e, ch)
	col := make([]storage.Word, ch.n)
	for row := int32(0); int(row) < ch.n; row++ {
		col[row] = val(row)
	}
	return col
}

// compileExpr builds a value function tree — function pointers all the way
// down, called once per value.
func compileExpr(e expr.Expr, ch chunk) getter {
	switch v := e.(type) {
	case expr.Col:
		return ch.getter(v.Attr)
	case expr.Const:
		val := v.Val
		return func(int32) storage.Word { return val }
	case expr.Arith:
		l := compileExpr(v.L, ch)
		r := compileExpr(v.R, ch)
		op := v.Op
		if v.Type() == storage.Float64 {
			return func(row int32) storage.Word { return arithF(op, l(row), r(row)) }
		}
		return func(row int32) storage.Word { return arithI(op, l(row), r(row)) }
	}
	panic("hyrise: unknown expression")
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
	table := index.BuildHash(storage.Accessor{Data: left.cols[v.LeftKey], Stride: 1}, left.n, par.Serial())
	var lidx, ridx []int32
	rk := right.getter(v.RightKey)
	for row := int32(0); int(row) < right.n; row++ {
		matched := len(lidx)
		lidx = table.Lookup(rk(row), lidx)
		for range lidx[matched:] {
			ridx = append(ridx, row)
		}
	}
	out := chunk{n: len(lidx)}
	for i := range left.cols {
		get := left.getter(i)
		col := make([]storage.Word, len(lidx))
		for j, row := range lidx {
			col[j] = get(row)
		}
		out.cols = append(out.cols, col)
	}
	for i := range right.cols {
		get := right.getter(i)
		col := make([]storage.Word, len(ridx))
		for j, row := range ridx {
			col[j] = get(row)
		}
		out.cols = append(out.cols, col)
	}
	return out
}

func evalAgg(v plan.Aggregate, c *plan.Catalog) chunk {
	child := eval(v.Child, c)
	ids := make([]int32, child.n)
	var keyRows [][]storage.Word
	groups := map[exec.GroupKey]int32{}
	if len(v.GroupBy) == 0 {
		keyRows = append(keyRows, nil)
	} else {
		getters := make([]getter, len(v.GroupBy))
		for i, gcol := range v.GroupBy {
			getters[i] = child.getter(gcol)
		}
		for row := int32(0); int(row) < child.n; row++ {
			var k exec.GroupKey
			for i := range getters {
				k[i] = getters[i](row)
			}
			id, ok := groups[k]
			if !ok {
				id = int32(len(keyRows))
				groups[k] = id
				kr := make([]storage.Word, len(getters))
				for i := range getters {
					kr[i] = getters[i](row)
				}
				keyRows = append(keyRows, kr)
			}
			ids[row] = id
		}
	}
	states := make([][]expr.AggState, len(v.Aggs))
	for ai, spec := range v.Aggs {
		norm := spec
		var val getter
		if spec.Arg != nil {
			val = compileExpr(spec.Arg, child)
			norm.Arg = expr.Col{Attr: 0, Ty: spec.Arg.Type()}
		}
		sts := make([]expr.AggState, len(keyRows))
		for gi := range sts {
			sts[gi] = expr.NewAggState(norm)
		}
		for row := int32(0); int(row) < child.n; row++ {
			if val == nil {
				sts[ids[row]].AddValue(0)
			} else {
				sts[ids[row]].AddValue(val(row))
			}
		}
		states[ai] = sts
	}
	out := chunk{n: len(keyRows)}
	for i := range v.GroupBy {
		col := make([]storage.Word, len(keyRows))
		for gi, kr := range keyRows {
			col[gi] = kr[i]
		}
		out.cols = append(out.cols, col)
	}
	for ai := range v.Aggs {
		col := make([]storage.Word, len(keyRows))
		for gi := range keyRows {
			col[gi] = states[ai][gi].Result()
		}
		out.cols = append(out.cols, col)
	}
	return out
}
