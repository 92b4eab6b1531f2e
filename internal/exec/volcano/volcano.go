// Package volcano implements the Volcano-style iterator engine: every
// operator exposes Open/Next, tuples flow one at a time through interface
// method calls, and operators are "configured" with predicate and
// expression trees interpreted per tuple. This is the deliberately
// CPU-inefficient processing model of the paper's Figure 3 — each tuple
// pays several dynamic dispatches, defeating branch prediction and
// instruction-cache locality exactly as the paper describes for
// function-pointer-chasing processors.
package volcano

import (
	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Engine is the Volcano iterator engine.
type Engine struct{}

// New returns the engine.
func New() Engine { return Engine{} }

// Name returns "volcano".
func (Engine) Name() string { return "volcano" }

// Run executes the plan tuple-at-a-time.
func (Engine) Run(n plan.Node, c *plan.Catalog) *result.Set {
	if ins, ok := n.(plan.Insert); ok {
		return exec.RunInsert(ins, c)
	}
	it := build(n, c)
	it.Open()
	out := result.New(plan.Output(n, c))
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		out.Append(append([]storage.Word(nil), row...))
	}
	return out
}

// iterator is the Volcano operator interface; Next returns a tuple that
// remains valid only until the next call.
type iterator interface {
	Open()
	Next() ([]storage.Word, bool)
}

func build(n plan.Node, c *plan.Catalog) iterator {
	switch v := n.(type) {
	case plan.Scan:
		if acc, ok := exec.PlanIndexAccess(c, v.Table, v.Filter); ok {
			return &indexScanIter{rel: c.Table(v.Table), idx: c, table: v.Table, access: acc, cols: v.Cols}
		}
		if v.Filter == nil {
			return &scanIter{rel: c.Table(v.Table), cols: v.Cols}
		}
		// Faithful Volcano: the scan is a dumb tuple enumerator; the
		// selection is a separate operator pulling every tuple through a
		// Next() call, and a projection narrows back to the requested
		// columns. This per-operator, per-tuple dynamic dispatch is the
		// CPU-inefficiency the paper measures.
		union := append([]int(nil), v.Cols...)
		posOf := map[int]int{}
		for i, a := range v.Cols {
			if _, ok := posOf[a]; !ok {
				posOf[a] = i
			}
		}
		for _, a := range expr.PredAttrs(v.Filter) {
			if _, ok := posOf[a]; !ok {
				posOf[a] = len(union)
				union = append(union, a)
			}
		}
		var it iterator = &scanIter{rel: c.Table(v.Table), cols: union}
		it = &selectIter{child: it, pred: expr.RemapAttrs(v.Filter, func(a int) int { return posOf[a] })}
		if len(union) != len(v.Cols) {
			exprs := make([]expr.Expr, len(v.Cols))
			for i := range v.Cols {
				exprs[i] = expr.Col{Attr: i}
			}
			it = &projectIter{child: it, exprs: exprs}
		}
		return it
	case plan.Select:
		return &selectIter{child: build(v.Child, c), pred: v.Pred}
	case plan.Project:
		return &projectIter{child: build(v.Child, c), exprs: v.Exprs}
	case plan.HashJoin:
		return &hashJoinIter{left: build(v.Left, c), right: build(v.Right, c), lkey: v.LeftKey, rkey: v.RightKey, width: len(plan.Output(v.Left, c))}
	case plan.Aggregate:
		return &aggIter{child: build(v.Child, c), groupBy: v.GroupBy, aggs: v.Aggs}
	case plan.Sort:
		return &sortIter{child: build(v.Child, c), keys: v.Keys}
	case plan.Limit:
		return &limitIter{child: build(v.Child, c), n: v.N}
	}
	panic("volcano: unsupported plan node")
}

// scanIter enumerates base-table rows, fetching each attribute through a
// relation method call and interpreting the filter per tuple.
type scanIter struct {
	rel    *storage.Relation
	filter expr.Pred
	cols   []int
	row    int
	buf    []storage.Word
}

func (s *scanIter) Open() {
	s.row = 0
	s.buf = make([]storage.Word, len(s.cols))
}

func (s *scanIter) Next() ([]storage.Word, bool) {
	for s.row < s.rel.Rows() {
		row := s.row
		s.row++
		if s.filter != nil && !expr.EvalPred(s.filter, func(a int) storage.Word { return s.rel.Value(row, a) }) {
			continue
		}
		for i, a := range s.cols {
			s.buf[i] = s.rel.Value(row, a)
		}
		return s.buf, true
	}
	return nil, false
}

// indexScanIter fetches candidate rows from an index, applies the residual
// predicate and projects.
type indexScanIter struct {
	rel    *storage.Relation
	idx    *plan.Catalog
	table  string
	access exec.IndexAccess
	cols   []int
	rows   []int32
	pos    int
	buf    []storage.Word
}

func (s *indexScanIter) Open() {
	s.rows = s.idx.Index(s.table, s.access.Attr).Lookup(s.access.Key, nil)
	s.pos = 0
	s.buf = make([]storage.Word, len(s.cols))
}

func (s *indexScanIter) Next() ([]storage.Word, bool) {
	for s.pos < len(s.rows) {
		row := int(s.rows[s.pos])
		s.pos++
		if s.access.Rest != nil && !expr.EvalPred(s.access.Rest, func(a int) storage.Word { return s.rel.Value(row, a) }) {
			continue
		}
		for i, a := range s.cols {
			s.buf[i] = s.rel.Value(row, a)
		}
		return s.buf, true
	}
	return nil, false
}

type selectIter struct {
	child iterator
	pred  expr.Pred
}

func (s *selectIter) Open() { s.child.Open() }

func (s *selectIter) Next() ([]storage.Word, bool) {
	for {
		row, ok := s.child.Next()
		if !ok {
			return nil, false
		}
		if expr.EvalPred(s.pred, func(a int) storage.Word { return row[a] }) {
			return row, true
		}
	}
}

type projectIter struct {
	child iterator
	exprs []expr.Expr
	buf   []storage.Word
}

func (p *projectIter) Open() {
	p.child.Open()
	p.buf = make([]storage.Word, len(p.exprs))
}

func (p *projectIter) Next() ([]storage.Word, bool) {
	row, ok := p.child.Next()
	if !ok {
		return nil, false
	}
	for i, e := range p.exprs {
		p.buf[i] = expr.EvalExpr(e, func(a int) storage.Word { return row[a] })
	}
	return p.buf, true
}

// hashJoinIter drains the left child into row-major words and a hash
// index over their join keys on Open, and streams the right child
// through it on Next.
type hashJoinIter struct {
	left, right iterator
	lkey, rkey  int
	width       int // words per left row
	build       []storage.Word
	table       *index.HashIndex
	matches     []int32 // the current right row's matches
	pending     []int32 // the ones not yet returned
	cur         []storage.Word
	buf         []storage.Word
}

func (j *hashJoinIter) Open() {
	j.left.Open()
	j.right.Open()
	j.build = j.build[:0]
	for {
		row, ok := j.left.Next()
		if !ok {
			break
		}
		j.build = append(j.build, row...)
	}
	j.table = index.BuildHash(storage.Accessor{Data: j.build, Stride: j.width, Off: j.lkey}, len(j.build)/j.width, par.Serial())
	j.pending = nil
}

func (j *hashJoinIter) Next() ([]storage.Word, bool) {
	for {
		if len(j.pending) > 0 {
			at := int(j.pending[0]) * j.width
			j.pending = j.pending[1:]
			j.buf = j.buf[:0]
			j.buf = append(j.buf, j.build[at:at+j.width]...)
			j.buf = append(j.buf, j.cur...)
			return j.buf, true
		}
		row, ok := j.right.Next()
		if !ok {
			return nil, false
		}
		if j.matches = j.table.Lookup(row[j.rkey], j.matches[:0]); len(j.matches) > 0 {
			j.cur = append(j.cur[:0], row...)
			j.pending = j.matches
		}
	}
}

// aggIter drains its child on Open, grouping tuple-at-a-time.
type aggIter struct {
	child   iterator
	groupBy []int
	aggs    []expr.AggSpec
	out     [][]storage.Word
	pos     int
}

func (a *aggIter) Open() {
	a.child.Open()
	type group struct {
		key    []storage.Word
		states []expr.AggState
	}
	order := make([]*group, 0)
	groups := make(map[exec.GroupKey]*group)
	newStates := func() []expr.AggState {
		st := make([]expr.AggState, len(a.aggs))
		for i, spec := range a.aggs {
			st[i] = expr.NewAggState(spec)
		}
		return st
	}
	for {
		row, ok := a.child.Next()
		if !ok {
			break
		}
		k := exec.MakeGroupKey(row, a.groupBy)
		g := groups[k]
		if g == nil {
			keyVals := make([]storage.Word, len(a.groupBy))
			for i, p := range a.groupBy {
				keyVals[i] = row[p]
			}
			g = &group{key: keyVals, states: newStates()}
			groups[k] = g
			order = append(order, g)
		}
		for i := range g.states {
			g.states[i].Add(func(p int) storage.Word { return row[p] })
		}
	}
	if len(a.groupBy) == 0 && len(order) == 0 {
		order = append(order, &group{states: newStates()})
	}
	a.out = a.out[:0]
	for _, g := range order {
		row := make([]storage.Word, 0, len(g.key)+len(a.aggs))
		row = append(row, g.key...)
		for i := range g.states {
			row = append(row, g.states[i].Result())
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
}

func (a *aggIter) Next() ([]storage.Word, bool) {
	if a.pos >= len(a.out) {
		return nil, false
	}
	a.pos++
	return a.out[a.pos-1], true
}

type sortIter struct {
	child iterator
	keys  []plan.SortKey
	rows  [][]storage.Word
	pos   int
}

func (s *sortIter) Open() {
	s.child.Open()
	s.rows = s.rows[:0]
	for {
		row, ok := s.child.Next()
		if !ok {
			break
		}
		s.rows = append(s.rows, append([]storage.Word(nil), row...))
	}
	exec.SortRows(s.rows, s.keys)
	s.pos = 0
}

func (s *sortIter) Next() ([]storage.Word, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	s.pos++
	return s.rows[s.pos-1], true
}

type limitIter struct {
	child iterator
	n     int
	done  int
}

func (l *limitIter) Open() {
	l.child.Open()
	l.done = 0
}

func (l *limitIter) Next() ([]storage.Word, bool) {
	if l.done >= l.n {
		return nil, false
	}
	row, ok := l.child.Next()
	if !ok {
		return nil, false
	}
	l.done++
	return row, true
}
