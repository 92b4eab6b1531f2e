package costmodel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/mem"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/storage"
)

func buildHashIndex(rel *storage.Relation, attr int) index.Index {
	return index.BuildOn(index.NewHashIndex(rel.Rows()), rel, attr, par.Serial())
}

// exampleCatalog reproduces the paper's example table R(A..P): 16 integer
// attributes, with attribute A carrying values so a parameterized equality
// hits a controllable fraction of tuples.
func exampleCatalog(rows int, layout storage.Layout) *plan.Catalog {
	attrs := make([]storage.Attribute, 16)
	for i := range attrs {
		attrs[i] = storage.Attribute{Name: string(rune('A' + i)), Type: storage.Int64}
	}
	schema := storage.NewSchema("R", attrs...)
	b := storage.NewBuilder(schema)
	rng := rand.New(rand.NewSource(42))
	for a := 0; a < 16; a++ {
		col := make([]int64, rows)
		for i := range col {
			if a == 0 {
				col[i] = int64(i % 100) // A = tuple id mod 100: sel(A=k) = 1%
			} else {
				col[i] = rng.Int63n(1000)
			}
		}
		b.SetInts(a, col)
	}
	return plan.NewCatalog().Add(b.Build(layout))
}

// exampleQuery is select sum(B),sum(C),sum(D),sum(E) from R where A=$1.
func exampleQuery() plan.Node {
	return plan.Aggregate{
		Child: plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(7)},
			Cols:   []int{1, 2, 3, 4},
		},
		Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_b"},
			{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_c"},
			{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sum_d"},
			{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "sum_e"},
		},
	}
}

// pdsmExample is the paper's hand-optimized layout: {A}, {B,C,D,E}, {F..P}.
func pdsmExample() storage.Layout {
	rest := make([]int, 0, 11)
	for a := 5; a < 16; a++ {
		rest = append(rest, a)
	}
	return storage.PDSM([]int{0}, []int{1, 2, 3, 4}, rest)
}

// TestTranslateExampleQueryShape checks the emitted pattern against the
// paper's Table Ib structure: a sequential traversal of the selection
// partition, a conditional read of the aggregate partition, and an rr_acc
// for the aggregation state.
func TestTranslateExampleQueryShape(t *testing.T) {
	c := exampleCatalog(10000, pdsmExample())
	p := Translate(exampleQuery(), c, nil)
	atoms := pattern.Atoms(p)
	var nSTrav, nSTravCR, nRRAcc int
	for _, a := range atoms {
		switch v := a.(type) {
		case pattern.STrav:
			nSTrav++
			if v.W != 8 {
				t.Errorf("selection s_trav width = %d, want 8 (single-attr partition)", v.W)
			}
		case pattern.STravCR:
			nSTravCR++
			if v.W != 32 || v.U != 32 {
				t.Errorf("aggregate s_trav_cr w/u = %d/%d, want 32/32", v.W, v.U)
			}
			if v.S < 0.005 || v.S > 0.02 {
				t.Errorf("selectivity = %v, want ~0.01", v.S)
			}
		case pattern.RRAcc:
			nRRAcc++
		}
	}
	if nSTrav != 1 || nSTravCR != 1 || nRRAcc != 1 {
		t.Errorf("atom counts strav/stravcr/rracc = %d/%d/%d, want 1/1/1 (pattern: %v)", nSTrav, nSTravCR, nRRAcc, p)
	}
}

// TestTranslateLayoutSensitivity: the model must price the example query
// cheaper on the hand-optimized PDSM layout than on NSM, and the NSM scan
// must reflect the full 16-attribute tuple width.
func TestTranslateLayoutSensitivity(t *testing.T) {
	c := exampleCatalog(100000, storage.NSM(16))
	g := mem.TableIII()
	q := exampleQuery()

	costNSM := CostOfPlan(q, c, nil, g)
	costPDSM := CostOfPlan(q, c, map[string]storage.Layout{"R": pdsmExample()}, g)
	costDSM := CostOfPlan(q, c, map[string]storage.Layout{"R": storage.DSM(16)}, g)

	if !(costPDSM < costNSM) {
		t.Errorf("PDSM (%v) should be cheaper than NSM (%v) for the example query", costPDSM, costNSM)
	}
	if !(costDSM < costNSM) {
		t.Errorf("DSM (%v) should be cheaper than NSM (%v)", costDSM, costNSM)
	}
}

// TestTranslateShortCircuitConjuncts: with two conjuncts, the second
// conjunct's attribute must be read conditionally (s_trav_cr with the
// first conjunct's selectivity), reproducing the ADRC NAME1/NAME2
// discussion of Table IV.
func TestTranslateShortCircuitConjuncts(t *testing.T) {
	c := exampleCatalog(10000, storage.DSM(16))
	q := plan.Scan{
		Table: "R",
		Filter: expr.And{Preds: []expr.Pred{
			expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(7)}, // sel 1%
			expr.Cmp{Attr: 1, Op: expr.Gt, Val: storage.EncodeInt(500)},
		}},
		Cols: []int{0, 1, 2},
	}
	atoms := pattern.Atoms(Translate(q, c, nil))
	var crs []pattern.STravCR
	for _, a := range atoms {
		if cr, ok := a.(pattern.STravCR); ok {
			crs = append(crs, cr)
		}
	}
	if len(crs) != 2 { // conjunct 2 and projection of attr 2
		t.Fatalf("expected 2 conditional reads, got %d (%v)", len(crs), atoms)
	}
	if crs[0].S < 0.005 || crs[0].S > 0.02 {
		t.Errorf("second conjunct selectivity = %v, want ~0.01", crs[0].S)
	}
	if crs[1].S > crs[0].S {
		t.Errorf("projection selectivity (%v) must not exceed prior cumulative (%v)", crs[1].S, crs[0].S)
	}
}

// TestTranslateRegionsCarryAttrs: optimizer introspection requires every
// base-table atom to be tagged with table and attributes.
func TestTranslateRegionsCarryAttrs(t *testing.T) {
	c := exampleCatalog(1000, storage.NSM(16))
	atoms := pattern.Atoms(Translate(exampleQuery(), c, nil))
	tagged := 0
	for _, a := range atoms {
		switch v := a.(type) {
		case pattern.STrav:
			if v.Region.Table == "R" {
				tagged++
			}
		case pattern.STravCR:
			if v.Region.Table == "R" {
				tagged++
			}
		}
	}
	if tagged < 2 {
		t.Errorf("only %d atoms tagged with base-table regions", tagged)
	}
}

// TestTranslateJoinEmitsBuildAndProbe: hash joins must emit the build
// r_trav, a pipeline break, and the probe rr_acc (Table II), at the
// widths of the table the engines build: the flat build rows (three
// words each) and the hash index's 16-byte slots.
func TestTranslateJoinEmitsBuildAndProbe(t *testing.T) {
	c := exampleCatalog(1000, storage.NSM(16))
	// Second table.
	schema := storage.NewSchema("S",
		storage.Attribute{Name: "k", Type: storage.Int64},
		storage.Attribute{Name: "v", Type: storage.Int64},
		storage.Attribute{Name: "w", Type: storage.Int64})
	b := storage.NewBuilder(schema)
	b.SetInts(0, []int64{1, 2, 3}).SetInts(1, []int64{10, 20, 30}).SetInts(2, []int64{7, 8, 9})
	c.Add(b.Build(storage.NSM(3)))

	q := plan.HashJoin{
		Left:     plan.Scan{Table: "S", Cols: []int{0, 1, 2}},
		Right:    plan.Scan{Table: "R", Cols: []int{0, 1}},
		LeftKey:  0,
		RightKey: 0,
	}
	p := Translate(q, c, nil)
	seq, ok := p.(pattern.Seq)
	if !ok {
		t.Fatalf("join pattern must be a sequence (pipeline break), got %T", p)
	}
	if len(seq.Ps) != 2 {
		t.Fatalf("join pattern has %d phases, want 2", len(seq.Ps))
	}
	const rowW = 3 * storage.WordBytes
	var builds []pattern.RTrav
	for _, a := range pattern.Atoms(seq.Ps[0]) {
		if r, ok := a.(pattern.RTrav); ok {
			builds = append(builds, r)
		}
	}
	if want := []pattern.RTrav{{N: 4, W: rowW, U: rowW}}; !reflect.DeepEqual(builds, want) {
		t.Errorf("build phase r_trav = %v, want %v: %v", builds, want, p)
	}
	var probes []pattern.RRAcc
	for _, a := range pattern.Atoms(seq.Ps[1]) {
		if r, ok := a.(pattern.RRAcc); ok {
			probes = append(probes, r)
		}
	}
	want := []pattern.RRAcc{
		{N: int64(index.HashSlots(3)), W: 16, U: 16, R: 1001},
		{N: 4, W: rowW, U: rowW, R: 1001},
	}
	if !reflect.DeepEqual(probes, want) {
		t.Errorf("probe phase rr_acc = %v, want %v: %v", probes, want, p)
	}
}

// TestTranslateIndexScanUsesRandomAccess: with an index registered, a
// point query must be priced as random accesses, not a traversal.
func TestTranslateIndexScanUsesRandomAccess(t *testing.T) {
	c := exampleCatalog(10000, storage.NSM(16))
	q := plan.Scan{Table: "R", Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(7)}, Cols: []int{0, 1, 2}}
	costScan := CostOfPlan(q, c, nil, mem.TableIII())

	rel := c.Table("R")
	c.AddIndex("R", 0, buildHashIndex(rel, 0))
	costIdx := CostOfPlan(q, c, nil, mem.TableIII())
	if !(costIdx < costScan/2) {
		t.Errorf("indexed point query (%v) should be far cheaper than scan (%v)", costIdx, costScan)
	}
	for _, a := range pattern.Atoms(Translate(q, c, nil)) {
		if _, ok := a.(pattern.STrav); ok {
			t.Errorf("index scan should not emit sequential traversals: %v", a)
		}
	}
}

// TestTranslateInsertTouchesEveryPartition: inserts append to all
// partitions; more partitions, more regions touched.
func TestTranslateInsertTouchesEveryPartition(t *testing.T) {
	c := exampleCatalog(100, storage.PDSM([]int{0, 1}, []int{2, 3}, rangeInts(4, 16)))
	rows := [][]storage.Word{make([]storage.Word, 16)}
	p := Translate(plan.Insert{Table: "R", Rows: rows}, c, nil)
	if got := len(pattern.Atoms(p)); got != 3 {
		t.Errorf("insert pattern touches %d regions, want 3 (one per partition)", got)
	}
}

// TestTranslateString ensures the rendered pattern resembles the paper's
// notation for the example query.
func TestTranslateString(t *testing.T) {
	c := exampleCatalog(10000, pdsmExample())
	s := Translate(exampleQuery(), c, nil).String()
	if !strings.Contains(s, "s_trav(") || !strings.Contains(s, "s_trav_cr(") || !strings.Contains(s, "rr_acc(") {
		t.Errorf("pattern rendering missing atoms: %s", s)
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
