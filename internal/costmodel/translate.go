package costmodel

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/mem"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Translate lowers a query plan into an access-pattern program, treating
// the pattern algebra as the instruction set of the cost model (paper
// Section IV-D, Table II). The plan is walked exactly like the JiT code
// generator walks it: patterns are emitted when data flows out of an
// operator, hash joins emit twice (build and probe), and the pipeline
// breaker between the two is the sequence operator ⊕.
//
// The translation is layout-aware: every base-table access is attributed
// to the vertical partition holding the attribute, with the partition's
// tuple width as R.w and the accessed bytes as u. Passing a non-nil
// layouts map overrides the stored layout per table, which is how the
// layout optimizer prices hypothetical decompositions without
// materializing them.
func Translate(n plan.Node, c *plan.Catalog, layouts map[string]storage.Layout) pattern.Pattern {
	t := &translator{c: c, layouts: layouts, sampleCap: 2000}
	res := t.node(n)
	return res.pat
}

// Estimator wraps Translate/Cost with memoized selectivity and group-count
// estimation. The layout optimizer prices thousands of candidate layouts
// against the same workload; selectivities and group counts are
// layout-independent, so caching them makes the search cheap.
type Estimator struct {
	C   *plan.Catalog
	G   mem.Geometry
	sel map[string]float64
}

// NewEstimator creates a caching estimator over a catalog and geometry.
func NewEstimator(c *plan.Catalog, g mem.Geometry) *Estimator {
	return &Estimator{C: c, G: g, sel: map[string]float64{}}
}

// Translate lowers the plan using cached statistics.
func (e *Estimator) Translate(n plan.Node, layouts map[string]storage.Layout) pattern.Pattern {
	t := &translator{c: e.C, layouts: layouts, sampleCap: 2000, est: e}
	return t.node(n).pat
}

// CostOfPlan prices the plan under the layout overrides.
func (e *Estimator) CostOfPlan(n plan.Node, layouts map[string]storage.Layout) float64 {
	return Cost(e.Translate(n, layouts), e.G)
}

// CostOfPlan translates the plan under the given layout overrides and
// evaluates the prefetch-aware cost function — the holistic per-query
// estimate the layout optimizer minimizes.
func CostOfPlan(n plan.Node, c *plan.Catalog, layouts map[string]storage.Layout, g mem.Geometry) float64 {
	return Cost(Translate(n, c, layouts), g)
}

type translator struct {
	c         *plan.Catalog
	layouts   map[string]storage.Layout
	sampleCap int
	est       *Estimator // optional statistic cache
}

// selectivity estimates (and caches, when attached to an Estimator) the
// selectivity of a predicate on a base table.
func (t *translator) selectivity(table string, p expr.Pred) float64 {
	if t.est == nil {
		return plan.EstimateSelectivity(t.c, table, p, t.sampleCap)
	}
	key := fmt.Sprintf("%s|%v", table, p)
	if v, ok := t.est.sel[key]; ok {
		return v
	}
	v := plan.EstimateSelectivity(t.c, table, p, t.sampleCap)
	t.est.sel[key] = v
	return v
}

type tnode struct {
	pat  pattern.Pattern
	rows float64
	cols int // output arity in words
}

func (t *translator) layoutOf(table string) storage.Layout {
	if t.layouts != nil {
		if l, ok := t.layouts[table]; ok {
			return l
		}
	}
	return t.c.Table(table).Layout
}

func (t *translator) node(n plan.Node) tnode {
	switch v := n.(type) {
	case plan.Scan:
		return t.scan(v)
	case plan.Select:
		child := t.node(v.Child)
		sel := 0.5 // conservative default for post-pipeline filters
		child.rows *= sel
		return child
	case plan.Project:
		child := t.node(v.Child)
		out := pattern.STrav{N: int64(child.rows) + 1, W: int64(len(v.Exprs)) * storage.WordBytes, U: int64(len(v.Exprs)) * storage.WordBytes}
		return tnode{pat: pattern.Concurrent(child.pat, out), rows: child.rows, cols: len(v.Exprs)}

	case plan.HashJoin:
		left := t.node(v.Left)
		right := t.node(v.Right)
		// Build phase: left pipeline ⊙ r_trav of the flat build rows, then
		// a pipeline break; probe phase: right pipeline ⊙ rr_acc of the
		// hash index's 16-byte slots (as many as index.NewHashIndex gives
		// the build) ⊙ rr_acc of the build rows.
		rowW := int64(left.cols) * storage.WordBytes
		rowN := int64(left.rows) + 1
		slotW := int64(2 * storage.WordBytes)
		probes := int64(right.rows) + 1
		build := pattern.Concurrent(left.pat, pattern.RTrav{N: rowN, W: rowW, U: rowW})
		probe := pattern.Concurrent(right.pat,
			pattern.RRAcc{N: int64(index.HashSlots(int(left.rows))), W: slotW, U: slotW, R: probes},
			pattern.RRAcc{N: rowN, W: rowW, U: rowW, R: probes})
		// Join selectivity: assume foreign-key join (each probe row finds
		// one build match) capped by the cross product.
		rows := math.Min(right.rows, left.rows*right.rows)
		return tnode{pat: pattern.Sequence(build, probe), rows: rows, cols: left.cols + right.cols}

	case plan.Aggregate:
		child := t.node(v.Child)
		groups := t.groupEstimate(v, child)
		gw := int64(len(v.GroupBy)+len(v.Aggs)) * storage.WordBytes
		agg := pattern.RRAcc{N: int64(groups) + 1, W: gw, U: gw, R: int64(child.rows) + 1}
		return tnode{pat: pattern.Concurrent(child.pat, agg), rows: groups, cols: len(v.GroupBy) + len(v.Aggs)}

	case plan.Sort:
		child := t.node(v.Child)
		n := int64(child.rows) + 1
		w := int64(child.cols) * storage.WordBytes
		logN := int64(math.Max(1, math.Log2(float64(n))))
		sorted := pattern.Sequence(
			child.pat,
			pattern.STrav{N: n, W: w, U: w},
			pattern.RRAcc{N: n, W: w, U: w, R: n * logN},
		)
		return tnode{pat: sorted, rows: child.rows, cols: child.cols}

	case plan.Limit:
		child := t.node(v.Child)
		if float64(v.N) < child.rows {
			child.rows = float64(v.N)
		}
		return child

	case plan.Insert:
		rel := t.c.Table(v.Table)
		layout := t.layoutOf(v.Table)
		var pats []pattern.Pattern
		for _, g := range layout.Groups {
			w := int64(len(g)) * storage.WordBytes
			pats = append(pats, pattern.STrav{
				N: int64(len(v.Rows)), W: w, U: w,
				Region: pattern.Region{Table: v.Table, Attrs: g},
			})
		}
		_ = rel
		return tnode{pat: pattern.Concurrent(pats...), rows: float64(len(v.Rows)), cols: 1}
	}
	panic("costmodel: unsupported plan node")
}

// scan emits the access pattern of a (possibly filtered, possibly
// index-supported) base-table scan under the effective layout.
//
// Conjuncts are evaluated with short-circuiting: the first conjunct's
// attributes are traversed unconditionally (s_trav); each later conjunct
// is only evaluated on tuples surviving the earlier ones, yielding
// s_trav_cr with the cumulative selectivity — this is what makes
// {{NAME1},{NAME2}} of the paper's Table IV a useful cut. Projected
// attributes outside the filter are read with the filter's total
// selectivity.
func (t *translator) scan(v plan.Scan) tnode {
	rel := t.c.Table(v.Table)
	layout := t.layoutOf(v.Table)
	n := int64(rel.Rows())
	if n == 0 {
		n = 1
	}

	if acc, ok := exec.PlanIndexAccess(t.c, v.Table, v.Filter); ok {
		return t.indexScan(v, acc, rel, layout, n)
	}

	groupOf := attrToGroup(layout)
	conjs := conjunctsOf(v.Filter)
	var pats []pattern.Pattern
	inFilter := map[int]bool{}
	cum := 1.0
	for _, conj := range conjs {
		attrs := expr.PredAttrs(conj)
		for _, a := range attrs {
			inFilter[a] = true
		}
		for g, as := range groupAttrs(groupOf, attrs) {
			w := int64(len(layout.Groups[g])) * storage.WordBytes
			u := int64(len(as)) * storage.WordBytes
			reg := pattern.Region{Table: v.Table, Attrs: as}
			if cum >= 1 {
				pats = append(pats, pattern.STrav{N: n, W: w, U: u, Region: reg})
			} else {
				pats = append(pats, pattern.STravCR{N: n, W: w, U: u, S: cum, Region: reg})
			}
		}
		cum *= t.selectivity(v.Table, conj)
	}

	var proj []int
	for _, a := range v.Cols {
		if !inFilter[a] {
			proj = append(proj, a)
		}
	}
	for g, as := range groupAttrs(groupOf, proj) {
		w := int64(len(layout.Groups[g])) * storage.WordBytes
		u := int64(len(as)) * storage.WordBytes
		reg := pattern.Region{Table: v.Table, Attrs: as}
		if cum >= 1 {
			pats = append(pats, pattern.STrav{N: n, W: w, U: u, Region: reg})
		} else {
			pats = append(pats, pattern.STravCR{N: n, W: w, U: u, S: cum, Region: reg})
		}
	}
	return tnode{pat: pattern.Concurrent(pats...), rows: float64(n) * cum, cols: len(v.Cols)}
}

// indexScan prices an index-supported point access: the index probe plus
// one random access per matching tuple into every partition holding
// requested attributes.
func (t *translator) indexScan(v plan.Scan, acc exec.IndexAccess, rel *storage.Relation, layout storage.Layout, n int64) tnode {
	sel := t.selectivity(v.Table, expr.Cmp{Attr: acc.Attr, Op: expr.Eq, Val: acc.Key})
	matches := int64(math.Max(1, sel*float64(n)))
	groupOf := attrToGroup(layout)
	// Index descent: ~log2(n) random touches in an index region.
	logN := int64(math.Max(1, math.Log2(float64(n))))
	pats := []pattern.Pattern{
		pattern.RRAcc{N: n, W: 2 * storage.WordBytes, U: 2 * storage.WordBytes, R: logN + matches},
	}
	need := append([]int(nil), v.Cols...)
	if acc.Rest != nil {
		need = append(need, expr.PredAttrs(acc.Rest)...)
	}
	for g, as := range groupAttrs(groupOf, need) {
		w := int64(len(layout.Groups[g])) * storage.WordBytes
		u := int64(len(as)) * storage.WordBytes
		pats = append(pats, pattern.RRAcc{
			N: n, W: w, U: u, R: matches,
			Region: pattern.Region{Table: v.Table, Attrs: as},
		})
	}
	return tnode{pat: pattern.Concurrent(pats...), rows: float64(matches), cols: len(v.Cols)}
}

// groupEstimate guesses the number of output groups by counting distinct
// group keys over a sample of the child pipeline's base table when the
// child is a simple scan, falling back to a square-root heuristic.
func (t *translator) groupEstimate(v plan.Aggregate, child tnode) float64 {
	if len(v.GroupBy) == 0 {
		return 1
	}
	if scan, ok := v.Child.(plan.Scan); ok {
		rel := t.c.Table(scan.Table)
		nrows := rel.Rows()
		if nrows > 0 {
			step := 1
			if nrows > t.sampleCap {
				step = nrows / t.sampleCap
			}
			distinct := map[exec.GroupKey]struct{}{}
			row := make([]storage.Word, len(scan.Cols))
			for r := 0; r < nrows; r += step {
				for i, a := range scan.Cols {
					row[i] = rel.Value(r, a)
				}
				distinct[exec.MakeGroupKey(row, v.GroupBy)] = struct{}{}
			}
			return math.Max(1, float64(len(distinct)))
		}
	}
	return math.Max(1, math.Sqrt(child.rows))
}

func conjunctsOf(p expr.Pred) []expr.Pred {
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

func attrToGroup(l storage.Layout) map[int]int {
	m := map[int]int{}
	for g, attrs := range l.Groups {
		for _, a := range attrs {
			m[a] = g
		}
	}
	return m
}

// groupAttrs buckets attributes by their partition group.
func groupAttrs(groupOf map[int]int, attrs []int) map[int][]int {
	out := map[int][]int{}
	seen := map[int]bool{}
	for _, a := range attrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		out[groupOf[a]] = append(out[groupOf[a]], a)
	}
	return out
}
