// Package vector implements the vectorized processing model
// (MonetDB/X100, Zukowski et al. [35]; compared against compilation by
// Sompolski et al. [32], which the paper cites for the
// selectivity-dependent behaviour in Figure 3): operators process
// cache-resident batches of tuples instead of whole columns, so
// intermediate results stay in the CPU cache rather than being fully
// materialized, while the per-batch primitive loops amortize the
// interpretation overhead over ~1k tuples.
//
// This engine is not one of the paper's three measured models — the paper
// discusses it as related work — and is provided for the ablation
// benchmarks (vectorization vs. compilation) and as a fifth differential
// witness for the correctness suite. Like volcano, bulk and hyrise it is
// a serial witness: it runs on the calling goroutine, and jit is the one
// engine that runs in parallel.
package vector

import (
	"repro/internal/exec"
	"repro/internal/exec/joinpar"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/sortpar"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// BatchSize is the vector length: small enough that a handful of vectors
// fit in L1/L2, large enough to amortize per-batch dispatch.
const BatchSize = 1024

// Engine is the vectorized engine.
type Engine struct{}

// New returns the engine.
func New() Engine { return Engine{} }

// Name returns "vector".
func (Engine) Name() string { return "vector" }

// batch is one vector of tuples, column-major. Columns are reused across
// next() calls; consumers must copy what they keep.
type batch struct {
	cols [][]storage.Word
	n    int
}

// biter produces batches.
type biter interface {
	next() (batch, bool)
}

// Run executes the plan batch-at-a-time. Result rows are materialized
// through the set's arena — one allocation per arena chunk, not per row.
func (Engine) Run(n plan.Node, c *plan.Catalog) *result.Set {
	if ins, ok := n.(plan.Insert); ok {
		return exec.RunInsert(ins, c)
	}
	out := result.New(plan.Output(n, c))
	it := build(n, c)
	for {
		b, ok := it.next()
		if !ok {
			break
		}
		for r := 0; r < b.n; r++ {
			row := out.NewRow()
			for i, col := range b.cols {
				row[i] = col[r]
			}
		}
	}
	return out
}

func build(n plan.Node, c *plan.Catalog) biter {
	switch v := n.(type) {
	case plan.Scan:
		if acc, ok := exec.PlanIndexAccess(c, v.Table, v.Filter); ok {
			rel := c.Table(v.Table)
			rows := c.Index(v.Table, acc.Attr).Lookup(acc.Key, nil)
			return &indexScan{rel: rel, rows: rows, rest: acc.Rest, cols: v.Cols}
		}
		return newScan(c.Table(v.Table), v.Filter, v.Cols)
	case plan.Select:
		return &selectIt{child: build(v.Child, c), pred: v.Pred, out: batch{}}
	case plan.Project:
		return &projectIt{child: build(v.Child, c), exprs: v.Exprs}
	case plan.HashJoin:
		return newJoin(v, c)
	case plan.Aggregate:
		return newAgg(build(v.Child, c), v)
	case plan.Sort:
		rows := drain(build(v.Child, c))
		sortpar.Sort(rows, v.Keys, par.Serial())
		return &materializedIt{rows: rows}
	case plan.Limit:
		// ORDER BY … LIMIT k fuses into a bounded top-N heap: the sort
		// retains at most k rows instead of materializing the child.
		if srt, ok := v.Child.(plan.Sort); ok {
			return newTopN(build(srt.Child, c), srt.Keys, v.N)
		}
		return &limitIt{child: build(v.Child, c), n: v.N}
	}
	panic("vector: unsupported plan node")
}

// scanIt produces batches from a base table, applying the filter with one
// primitive loop per conjunct per batch (selection vectors stay in
// cache). The filter is pre-split into conjuncts; an empty conjunct list
// (nil or trivially-true filter) passes every row, matching the other
// engines.
type scanIt struct {
	rel   *storage.Relation
	conjs []expr.Pred
	cols  []int
	pos   int
	sel   []int32
	out   batch
}

func newScan(rel *storage.Relation, filter expr.Pred, cols []int) *scanIt {
	s := &scanIt{rel: rel, conjs: conjuncts(filter), cols: cols}
	s.sel = make([]int32, 0, BatchSize)
	s.out.cols = make([][]storage.Word, len(cols))
	for i := range s.out.cols {
		s.out.cols[i] = make([]storage.Word, BatchSize)
	}
	return s
}

func (s *scanIt) next() (batch, bool) {
	for s.pos < s.rel.Rows() {
		lo := s.pos
		hi := lo + BatchSize
		if hi > s.rel.Rows() {
			hi = s.rel.Rows()
		}
		s.pos = hi

		// Selection vector over [lo,hi): one tight loop per conjunct.
		s.sel = s.sel[:0]
		if len(s.conjs) == 0 {
			for r := lo; r < hi; r++ {
				s.sel = append(s.sel, int32(r))
			}
		} else {
			first := true
			for _, conj := range s.conjs {
				s.sel = applyConj(s.rel, conj, s.sel, first, lo, hi)
				first = false
			}
		}
		if len(s.sel) == 0 {
			continue
		}
		// Gather the projected columns for the surviving positions.
		for i, attr := range s.cols {
			a := s.rel.Access(attr)
			dst := s.out.cols[i]
			for j, r := range s.sel {
				dst[j] = a.Data[int(r)*a.Stride+a.Off]
			}
		}
		s.out.n = len(s.sel)
		return s.out, true
	}
	return batch{}, false
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

func applyConj(rel *storage.Relation, p expr.Pred, sel []int32, first bool, lo, hi int) []int32 {
	test := func(r int32) bool {
		switch v := p.(type) {
		case expr.Cmp:
			a := rel.Access(v.Attr)
			return v.Op.Apply(a.Data[int(r)*a.Stride+a.Off], v.Val)
		case expr.Between:
			a := rel.Access(v.Attr)
			w := a.Data[int(r)*a.Stride+a.Off]
			return w >= v.Lo && w <= v.Hi
		case expr.InSet:
			a := rel.Access(v.Attr)
			return v.Set.Contains(a.Data[int(r)*a.Stride+a.Off])
		default:
			return expr.EvalPred(p, func(attr int) storage.Word { return rel.Value(int(r), attr) })
		}
	}
	if first {
		out := sel[:0]
		// Specialized primitive: hoist the accessor out of the loop for
		// the common comparison case.
		if cmp, ok := p.(expr.Cmp); ok {
			a := rel.Access(cmp.Attr)
			for r := lo; r < hi; r++ {
				if cmp.Op.Apply(a.Data[r*a.Stride+a.Off], cmp.Val) {
					out = append(out, int32(r))
				}
			}
			return out
		}
		for r := lo; r < hi; r++ {
			if test(int32(r)) {
				out = append(out, int32(r))
			}
		}
		return out
	}
	out := sel[:0]
	for _, r := range sel {
		if test(r) {
			out = append(out, r)
		}
	}
	return out
}

// indexScan emits the (small) index result as one batch stream.
type indexScan struct {
	rel  *storage.Relation
	rows []int32
	rest expr.Pred
	cols []int
	done bool
}

func (s *indexScan) next() (batch, bool) {
	if s.done {
		return batch{}, false
	}
	s.done = true
	var b batch
	b.cols = make([][]storage.Word, len(s.cols))
	for i := range b.cols {
		b.cols[i] = make([]storage.Word, 0, len(s.rows))
	}
	for _, r := range s.rows {
		if s.rest != nil && !expr.EvalPred(s.rest, func(a int) storage.Word { return s.rel.Value(int(r), a) }) {
			continue
		}
		b.n++
		for i, attr := range s.cols {
			b.cols[i] = append(b.cols[i], s.rel.Value(int(r), attr))
		}
	}
	return b, true
}

// selectIt filters batches by position.
type selectIt struct {
	child biter
	pred  expr.Pred
	out   batch
}

func (s *selectIt) next() (batch, bool) {
	for {
		in, ok := s.child.next()
		if !ok {
			return batch{}, false
		}
		if s.out.cols == nil {
			s.out.cols = make([][]storage.Word, len(in.cols))
			for i := range s.out.cols {
				s.out.cols[i] = make([]storage.Word, BatchSize)
			}
		}
		n := 0
		for r := 0; r < in.n; r++ {
			if expr.EvalPred(s.pred, func(a int) storage.Word { return in.cols[a][r] }) {
				for i := range in.cols {
					s.out.cols[i][n] = in.cols[i][r]
				}
				n++
			}
		}
		if n > 0 {
			s.out.n = n
			return s.out, true
		}
	}
}

// projectIt evaluates expressions batch-at-a-time, one loop per output.
type projectIt struct {
	child biter
	exprs []expr.Expr
	out   batch
}

func (p *projectIt) next() (batch, bool) {
	in, ok := p.child.next()
	if !ok {
		return batch{}, false
	}
	if p.out.cols == nil {
		p.out.cols = make([][]storage.Word, len(p.exprs))
		for i := range p.out.cols {
			p.out.cols[i] = make([]storage.Word, BatchSize)
		}
	}
	for i, e := range p.exprs {
		dst := p.out.cols[i]
		if col, okc := e.(expr.Col); okc {
			copy(dst[:in.n], in.cols[col.Attr][:in.n])
			continue
		}
		for r := 0; r < in.n; r++ {
			dst[r] = expr.EvalExpr(e, func(a int) storage.Word { return in.cols[a][r] })
		}
	}
	p.out.n = in.n
	return p.out, true
}

// joinIt builds the left side eagerly — drained into rows and indexed by
// joinpar.Build serially, the jit engine's flat probe table — and probes
// right batches.
type joinIt struct {
	right      biter
	jt         *joinpar.Table
	rkey       int
	leftWidth  int
	rightWidth int
	out        batch
}

func newJoin(v plan.HashJoin, c *plan.Catalog) *joinIt {
	leftWidth := len(plan.Output(v.Left, c))
	return &joinIt{
		jt:         joinpar.Build(drain(build(v.Left, c)), v.LeftKey, leftWidth, par.Serial()),
		right:      build(v.Right, c),
		rkey:       v.RightKey,
		leftWidth:  leftWidth,
		rightWidth: len(plan.Output(v.Right, c)),
	}
}

func (j *joinIt) next() (batch, bool) {
	for {
		in, ok := j.right.next()
		if !ok {
			return batch{}, false
		}
		if j.out.cols == nil {
			j.out.cols = make([][]storage.Word, j.leftWidth+j.rightWidth)
		}
		for i := range j.out.cols {
			j.out.cols[i] = j.out.cols[i][:0]
		}
		n := 0
		for r := 0; r < in.n; r++ {
			matches, flat := j.jt.Lookup(in.cols[j.rkey][r])
			for _, m := range matches {
				l := flat[int(m)*j.leftWidth:]
				for i := 0; i < j.leftWidth; i++ {
					j.out.cols[i] = append(j.out.cols[i], l[i])
				}
				for i := 0; i < j.rightWidth; i++ {
					j.out.cols[j.leftWidth+i] = append(j.out.cols[j.leftWidth+i], in.cols[i][r])
				}
				n++
			}
		}
		if n > 0 {
			j.out.n = n
			return j.out, true
		}
	}
}

// aggIt drains the child, grouping batch-at-a-time.
type aggIt struct {
	rows [][]storage.Word
	pos  int
}

func newAgg(child biter, v plan.Aggregate) *aggIt {
	type group struct {
		key    []storage.Word
		states []expr.AggState
	}
	groups := map[exec.GroupKey]*group{}
	var order []*group
	newStates := func() []expr.AggState {
		st := make([]expr.AggState, len(v.Aggs))
		for i, spec := range v.Aggs {
			st[i] = expr.NewAggState(spec)
		}
		return st
	}
	for {
		b, ok := child.next()
		if !ok {
			break
		}
		for r := 0; r < b.n; r++ {
			var k exec.GroupKey
			for i, g := range v.GroupBy {
				k[i] = b.cols[g][r]
			}
			g := groups[k]
			if g == nil {
				key := make([]storage.Word, len(v.GroupBy))
				for i, p := range v.GroupBy {
					key[i] = b.cols[p][r]
				}
				g = &group{key: key, states: newStates()}
				groups[k] = g
				order = append(order, g)
			}
			row := r
			for i := range g.states {
				g.states[i].Add(func(a int) storage.Word { return b.cols[a][row] })
			}
		}
	}
	if len(v.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &group{states: newStates()})
	}
	out := &aggIt{}
	for _, g := range order {
		row := make([]storage.Word, 0, len(g.key)+len(v.Aggs))
		row = append(row, g.key...)
		for i := range g.states {
			row = append(row, g.states[i].Result())
		}
		out.rows = append(out.rows, row)
	}
	return out
}

func (a *aggIt) next() (batch, bool) {
	if a.pos >= len(a.rows) {
		return batch{}, false
	}
	hi := a.pos + BatchSize
	if hi > len(a.rows) {
		hi = len(a.rows)
	}
	width := len(a.rows[a.pos])
	b := batch{cols: make([][]storage.Word, width), n: hi - a.pos}
	for i := 0; i < width; i++ {
		col := make([]storage.Word, b.n)
		for r := 0; r < b.n; r++ {
			col[r] = a.rows[a.pos+r][i]
		}
		b.cols[i] = col
	}
	a.pos = hi
	return b, true
}

// materializedIt re-emits drained rows as batches.
type materializedIt struct {
	rows [][]storage.Word
	pos  int
}

// drain materializes every row of it, carved from one arena.
func drain(it biter) [][]storage.Word {
	var rows [][]storage.Word
	var arena result.Arena
	for {
		b, ok := it.next()
		if !ok {
			return rows
		}
		for r := 0; r < b.n; r++ {
			row := arena.NewRow(len(b.cols))
			for i := range b.cols {
				row[i] = b.cols[i][r]
			}
			rows = append(rows, row)
		}
	}
}

func (m *materializedIt) next() (batch, bool) {
	if m.pos >= len(m.rows) {
		return batch{}, false
	}
	hi := m.pos + BatchSize
	if hi > len(m.rows) {
		hi = len(m.rows)
	}
	width := len(m.rows[m.pos])
	b := batch{cols: make([][]storage.Word, width), n: hi - m.pos}
	for i := 0; i < width; i++ {
		col := make([]storage.Word, b.n)
		for r := 0; r < b.n; r++ {
			col[r] = m.rows[m.pos+r][i]
		}
		b.cols[i] = col
	}
	m.pos = hi
	return b, true
}

// newTopN is the fused Sort+Limit breaker: it drains the sort child's
// batches through a bounded k-element heap (rows are copied only when they
// enter the retained set), so a top-N query materializes O(k) sorted rows
// instead of the child's full output. The emitted rows are bit-identical
// to stable-sort-then-truncate: ties break by stream position.
func newTopN(it biter, keys []plan.SortKey, k int) *materializedIt {
	t := sortpar.NewTopN(keys, k)
	var row []storage.Word
	seq := 0
	for {
		b, ok := it.next()
		if !ok {
			break
		}
		for r := 0; r < b.n; r++ {
			row = row[:0]
			for i := range b.cols {
				row = append(row, b.cols[i][r])
			}
			t.Offer(row, 0, seq)
			seq++
		}
	}
	return &materializedIt{rows: sortpar.MergeTopN([]*sortpar.TopN{t}, keys, k)}
}

// limitIt truncates the stream.
type limitIt struct {
	child biter
	n     int
	done  int
}

func (l *limitIt) next() (batch, bool) {
	if l.done >= l.n {
		return batch{}, false
	}
	b, ok := l.child.next()
	if !ok {
		return batch{}, false
	}
	if l.done+b.n > l.n {
		b.n = l.n - l.done
	}
	l.done += b.n
	return b, true
}
