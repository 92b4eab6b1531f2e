package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// samplePlans covers every node, predicate and expression kind at least
// once; the round-trip and fuzz tests both draw from it.
func samplePlans() map[string]Node {
	inSet := storage.NewCodeSet([]storage.Word{1, 3, 9}, 12)
	return map[string]Node{
		"scan": Scan{Table: "R", Cols: []int{0, 1, 2}},
		"scan-filtered": Scan{
			Table: "R",
			Filter: expr.Conj(
				expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(100)},
				expr.Between{Attr: 1, Lo: storage.EncodeInt(3), Hi: storage.EncodeInt(7)},
			),
			Cols: []int{1, 2},
		},
		"scan-or-notnull": Scan{
			Table: "R",
			Filter: expr.Or{Preds: []expr.Pred{
				expr.NotNull{Attr: 2},
				expr.InSet{Attr: 3, Set: inSet},
				expr.True{},
			}},
			Cols: []int{0},
		},
		"select-project": Project{
			Child: Select{
				Child: Scan{Table: "R", Cols: []int{0, 1}},
				Pred:  expr.Cmp{Attr: 1, Op: expr.Ge, Val: storage.EncodeInt(5)},
			},
			Exprs: []expr.Expr{
				expr.Arith{Op: expr.Add, L: expr.IntCol(0), R: expr.IntConst(1)},
				expr.Arith{Op: expr.Mul, L: expr.Const{Val: storage.EncodeFloat(2.5), Ty: storage.Float64}, R: expr.Const{Val: storage.EncodeFloat(4), Ty: storage.Float64}},
			},
			Names: []string{"bumped", "ten"},
		},
		"join-agg-sort-limit": Limit{
			N: 10,
			Child: Sort{
				Keys: []SortKey{{Pos: 1, Desc: true}, {Pos: 0}},
				Child: Aggregate{
					Child: HashJoin{
						Left:     Scan{Table: "R", Cols: []int{0, 1}},
						Right:    Scan{Table: "S", Cols: []int{0, 2}},
						LeftKey:  0,
						RightKey: 0,
					},
					GroupBy: []int{1},
					Aggs: []expr.AggSpec{
						{Kind: expr.Count, Name: "n"},
						{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "total"},
						{Kind: expr.Min, Arg: expr.IntCol(3), Name: "lo"},
						{Kind: expr.Max, Arg: expr.IntCol(3), Name: "hi"},
						{Kind: expr.Avg, Arg: expr.IntCol(3), Name: "mean"},
					},
				},
			},
		},
		"insert": Insert{Table: "R", Rows: [][]storage.Word{
			{storage.EncodeInt(1), storage.EncodeInt(2), storage.EncodeInt(3), storage.EncodeInt(4)},
		}},
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	for name, p := range samplePlans() {
		t.Run(name, func(t *testing.T) {
			data, err := MarshalNode(p)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := UnmarshalNode(data)
			if err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if !reflect.DeepEqual(canonTree(p), canonTree(back)) {
				t.Fatalf("round trip drifted:\n in: %#v\nout: %#v\nvia: %s", p, back, data)
			}
			// The canonical encoding must be stable: it doubles as the
			// prepared-plan cache key.
			again, err := MarshalNode(back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(data) != string(again) {
				t.Fatalf("encoding not canonical:\n first: %s\nsecond: %s", data, again)
			}
		})
	}
}

// normalize rewrites representation-level slack that DeepEqual would trip
// over: a nil Cols/GroupBy slice decodes as empty, and a CodeSet compares
// by contents.
func canonTree(n Node) Node {
	switch v := n.(type) {
	case Scan:
		v.Cols = append([]int{}, v.Cols...)
		v.Filter = canonSetPred(v.Filter)
		return v
	case Select:
		v.Child = canonTree(v.Child)
		v.Pred = canonSetPred(v.Pred)
		return v
	case Project:
		v.Child = canonTree(v.Child)
		if v.Names == nil {
			v.Names = []string{}
		}
		return v
	case HashJoin:
		v.Left = canonTree(v.Left)
		v.Right = canonTree(v.Right)
		return v
	case Aggregate:
		v.Child = canonTree(v.Child)
		v.GroupBy = append([]int{}, v.GroupBy...)
		return v
	case Sort:
		v.Child = canonTree(v.Child)
		return v
	case Limit:
		v.Child = canonTree(v.Child)
		return v
	default:
		return n
	}
}

func canonSetPred(p expr.Pred) expr.Pred {
	switch v := p.(type) {
	case expr.InSet:
		// Rebuild through the serialized form so bitset-internal slack
		// (identical contents, different backing) compares equal.
		return expr.InSet{Attr: v.Attr, Set: storage.NewCodeSet(v.Set.Codes(), v.Set.Size())}
	case expr.And:
		out := make([]expr.Pred, len(v.Preds))
		for i, c := range v.Preds {
			out[i] = canonSetPred(c)
		}
		return expr.And{Preds: out}
	case expr.Or:
		out := make([]expr.Pred, len(v.Preds))
		for i, c := range v.Preds {
			out[i] = canonSetPred(c)
		}
		return expr.Or{Preds: out}
	default:
		return p
	}
}

// TestPlanJSONErrorsNameField asserts malformed inputs are rejected with
// errors that name the offending field by path.
func TestPlanJSONErrorsNameField(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		field string
	}{
		{"not-an-object", `[1,2]`, "plan"},
		{"missing-op", `{"table":"R"}`, "plan.op"},
		{"unknown-op", `{"op":"teleport"}`, "plan.op"},
		{"scan-missing-table", `{"op":"scan","cols":[0]}`, "plan.table"},
		{"scan-missing-cols", `{"op":"scan","table":"R"}`, "plan.cols"},
		{"scan-negative-col", `{"op":"scan","table":"R","cols":[0,-2]}`, "plan.cols[1]"},
		{"scan-bad-filter", `{"op":"scan","table":"R","cols":[0],"filter":{"pred":"cmp","attr":0,"op":"!","val":{"int":1}}}`, "plan.filter.op"},
		{"nested-bad-pred", `{"op":"select","child":{"op":"scan","table":"R","cols":[0]},"pred":{"pred":"and","preds":[{"pred":"true"},{"pred":"cmp","attr":-1,"op":"=","val":{"int":1}}]}}`, "plan.pred.preds[1].attr"},
		{"value-two-kinds", `{"op":"select","child":{"op":"scan","table":"R","cols":[0]},"pred":{"pred":"cmp","attr":0,"op":"=","val":{"int":1,"float":2}}}`, "plan.pred.val"},
		{"value-no-kind", `{"op":"select","child":{"op":"scan","table":"R","cols":[0]},"pred":{"pred":"cmp","attr":0,"op":"=","val":{}}}`, "plan.pred.val"},
		{"limit-negative", `{"op":"limit","n":-1,"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.n"},
		{"sort-bad-key", `{"op":"sort","keys":[{"pos":"zero"}],"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.keys[0].pos"},
		{"agg-missing-arg", `{"op":"aggregate","aggs":[{"agg":"sum","name":"s"}],"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.aggs[0].arg"},
		{"agg-unknown-kind", `{"op":"aggregate","aggs":[{"agg":"median"}],"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.aggs[0].agg"},
		{"project-bad-expr", `{"op":"project","exprs":[{"expr":"col","attr":0,"type":"int32"}],"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.exprs[0].type"},
		{"arith-type-mismatch", `{"op":"project","exprs":[{"expr":"arith","op":"+","left":{"expr":"col","attr":0,"type":"int64"},"right":{"expr":"const","type":"float64","val":{"float":1}}}],"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.exprs[0].right"},
		{"join-bad-key", `{"op":"hashjoin","left":{"op":"scan","table":"R","cols":[0]},"right":{"op":"scan","table":"S","cols":[0]},"leftKey":-1,"rightKey":0}`, "plan.leftKey"},
		{"insert-bad-row", `{"op":"insert","table":"R","rows":[[{"int":1}],{"int":2}]}`, "plan.rows[1]"},
		// A remote plan must not size the inset bitset: both the declared
		// space and the codes themselves are bounded BEFORE allocation.
		{"inset-huge-space", `{"op":"scan","table":"R","cols":[0],"filter":{"pred":"inset","attr":0,"codes":[1],"space":1000000000000}}`, "plan.filter.space"},
		{"inset-huge-code", `{"op":"scan","table":"R","cols":[0],"filter":{"pred":"inset","attr":0,"codes":[1099511627776]}}`, "plan.filter.codes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalNode([]byte(tc.in))
			if err == nil {
				t.Fatalf("no error for %s", tc.in)
			}
			fe, ok := err.(*FieldError)
			if !ok {
				t.Fatalf("error %v (%T) is not a FieldError", err, err)
			}
			if fe.Field != tc.field {
				t.Fatalf("error names field %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
}

func jsonTestCatalog() *Catalog {
	mk := func(name string, attrs int) *storage.Relation {
		as := make([]storage.Attribute, attrs)
		for i := range as {
			as[i] = storage.Attribute{Name: string(rune('a' + i)), Type: storage.Int64}
		}
		b := storage.NewBuilder(storage.NewSchema(name, as...))
		col := make([]int64, 8)
		for i := range col {
			col[i] = int64(i)
		}
		for a := 0; a < attrs; a++ {
			b.SetInts(a, col)
		}
		return b.Build(storage.NSM(attrs))
	}
	return NewCatalog().Add(mk("R", 4)).Add(mk("S", 3))
}

// TestCheck exercises the catalog-aware validation pass.
func TestCheck(t *testing.T) {
	c := jsonTestCatalog()
	for name, p := range samplePlans() {
		t.Run("valid/"+name, func(t *testing.T) {
			if name == "scan-or-notnull" {
				// InSet over attr 3 is fine structurally; codes target a
				// string dictionary the test catalog doesn't model.
			}
			if err := Check(p, c); err != nil {
				t.Fatalf("Check rejected a valid plan: %v", err)
			}
		})
	}

	bad := []struct {
		name  string
		plan  Node
		field string
	}{
		{"unknown-table", Scan{Table: "T", Cols: []int{0}}, "plan.table"},
		{"col-out-of-range", Scan{Table: "R", Cols: []int{0, 4}}, "plan.cols[1]"},
		{"filter-out-of-range", Scan{Table: "R", Cols: []int{0}, Filter: expr.Cmp{Attr: 9, Op: expr.Eq, Val: 0}}, "plan.filter"},
		{"pred-past-child", Select{Child: Scan{Table: "R", Cols: []int{0}}, Pred: expr.Cmp{Attr: 1, Op: expr.Eq, Val: 0}}, "plan.pred"},
		{"join-key-past-side", HashJoin{
			Left: Scan{Table: "R", Cols: []int{0}}, Right: Scan{Table: "S", Cols: []int{0}},
			LeftKey: 1, RightKey: 0,
		}, "plan.leftKey"},
		{"group-past-child", Aggregate{
			Child: Scan{Table: "R", Cols: []int{0}}, GroupBy: []int{2},
			Aggs: []expr.AggSpec{{Kind: expr.Count}},
		}, "plan.groupBy[0]"},
		{"sum-missing-arg", Aggregate{
			Child: Scan{Table: "R", Cols: []int{0}},
			Aggs:  []expr.AggSpec{{Kind: expr.Sum, Name: "s"}},
		}, "plan.aggs[0].arg"},
		{"sort-past-child", Sort{Child: Scan{Table: "R", Cols: []int{0}}, Keys: []SortKey{{Pos: 3}}}, "plan.keys[0].pos"},
		{"too-many-group-cols", Aggregate{
			// 5 group columns overruns the engines' fixed-size GroupKey;
			// Check must reject before MakeGroupKey can panic.
			Child:   Scan{Table: "R", Cols: []int{0, 1, 2, 3, 0}},
			GroupBy: []int{0, 1, 2, 3, 4},
			Aggs:    []expr.AggSpec{{Kind: expr.Count}},
		}, "plan.groupBy"},
		{"insert-arity", Insert{Table: "R", Rows: [][]storage.Word{{1, 2}}}, "plan.rows[0]"},
		{"nil-plan", nil, "plan"},
	}
	for _, tc := range bad {
		t.Run("invalid/"+tc.name, func(t *testing.T) {
			err := Check(tc.plan, c)
			if err == nil {
				t.Fatal("Check accepted an invalid plan")
			}
			fe, ok := err.(*FieldError)
			if !ok {
				t.Fatalf("error %v (%T) is not a FieldError", err, err)
			}
			if fe.Field != tc.field {
				t.Fatalf("error names field %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
}

// FuzzPlanJSON feeds arbitrary bytes to the decoder: it must never panic,
// it must accept nothing encoding/json would call malformed, what it rejects
// it rejects with a named field, and what it accepts re-encodes to a fixed
// point of marshal/unmarshal.
func FuzzPlanJSON(f *testing.F) {
	for _, p := range samplePlans() {
		if data, err := MarshalNode(p); err == nil {
			f.Add(data)
		}
	}
	for _, want := range benchGolden {
		f.Add([]byte(want))
	}
	for _, tc := range narrowings {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte(`{"op":"scan"`))
	f.Add([]byte(`{"op":"limit","n":1e99,"child":{"op":"scan","table":"R","cols":[0]}}`))
	f.Add([]byte(`{"op":"select","pred":{"pred":"cmp"},"child":null}`))
	f.Add([]byte(`{"op":"insert","table":"a\u00e9\ud83d\ude00\ud800","rows":[null,[{"int":-0},{"float":1e2},{"bool":null},{"code":18446744073709551615}]]} `))
	f.Add([]byte("{\"op\":\"scan\",\"table\":\"bad\xffutf8\",\"cols\":[1.0]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := UnmarshalNode(data)
		if err != nil {
			var fe *FieldError
			if !errors.As(err, &fe) || !strings.HasPrefix(fe.Field, "plan") {
				t.Fatalf("rejected without naming a field: %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted malformed JSON: %q", data)
		}
		enc, err := MarshalNode(n)
		if err != nil {
			t.Fatalf("accepted plan failed to marshal: %v", err)
		}
		back, err := UnmarshalNode(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v\nfrom: %s", err, enc)
		}
		if again, err := MarshalNode(back); err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("canonical form is not a fixed point (%v):\n first: %s\nsecond: %s", err, enc, again)
		}
	})
}

// benchPlans are the plans benchmark/data.go sends, built the same way.
func benchPlans() map[string]Node {
	rows := make([][]storage.Word, 4)
	for r := range rows {
		rows[r] = []storage.Word{
			storage.EncodeInt(int64(r)), storage.EncodeInt(int64(734_201 + r)),
			storage.EncodeFloat(float64(12_345+r) / 100), storage.EncodeInt(int64(r % 16)),
		}
	}
	filter := expr.Cmp{Attr: 1, Op: expr.Lt, Val: storage.EncodeInt(10_000)}
	return map[string]Node{
		"insert4x4": Insert{Table: "events", Rows: rows},
		"point": Scan{
			Table:  "orders",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(1_234_567)},
			Cols:   []int{0, 1, 2, 8, 10, 11},
		},
		"agg4": Aggregate{
			Child: Scan{Table: "orders", Filter: filter, Cols: []int{2, 3, 4, 5}},
			Aggs: []expr.AggSpec{
				{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_m1"},
				{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_m2"},
				{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sum_m3"},
				{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "sum_m4"},
			},
		},
		"group": Aggregate{
			Child:   Scan{Table: "orders", Filter: filter, Cols: []int{11, 6}},
			GroupBy: []int{0},
			Aggs:    []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_m5"}},
		},
		"wide": Scan{
			Table:  "recent",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(50_000)},
			Cols:   []int{0, 1, 2, 3, 4, 5, 6, 7},
		},
	}
}

// benchGolden is what MarshalNode made of benchPlans at the commit before
// the hand-written encoder (map[string]any trees through json.Marshal).
// benchmark/data.go builds every request body with MarshalNode, so these
// bytes are what plan.body_bytes and the plan-cache keys are made of.
var benchGolden = map[string]string{
	"insert4x4": `{"op":"insert","rows":[[{"word":9223372036854775808},{"word":9223372036855510009},{"word":13861759475260378317},{"word":9223372036854775808}],[{"word":9223372036854775809},{"word":9223372036855510010},{"word":13861760178947820093},{"word":9223372036854775809}],[{"word":9223372036854775810},{"word":9223372036855510011},{"word":13861760882635261870},{"word":9223372036854775810}],[{"word":9223372036854775811},{"word":9223372036855510012},{"word":13861761586322703647},{"word":9223372036854775811}]],"table":"events"}`,
	"point":     `{"cols":[0,1,2,8,10,11],"filter":{"attr":0,"op":"=","pred":"cmp","val":{"word":9223372036856010375}},"op":"scan","table":"orders"}`,
	"agg4":      `{"aggs":[{"agg":"sum","arg":{"attr":0,"expr":"col","type":"int64"},"name":"sum_m1"},{"agg":"sum","arg":{"attr":1,"expr":"col","type":"int64"},"name":"sum_m2"},{"agg":"sum","arg":{"attr":2,"expr":"col","type":"int64"},"name":"sum_m3"},{"agg":"sum","arg":{"attr":3,"expr":"col","type":"int64"},"name":"sum_m4"}],"child":{"cols":[2,3,4,5],"filter":{"attr":1,"op":"\u003c","pred":"cmp","val":{"word":9223372036854785808}},"op":"scan","table":"orders"},"groupBy":[],"op":"aggregate"}`,
	"group":     `{"aggs":[{"agg":"sum","arg":{"attr":1,"expr":"col","type":"int64"},"name":"sum_m5"}],"child":{"cols":[11,6],"filter":{"attr":1,"op":"\u003c","pred":"cmp","val":{"word":9223372036854785808}},"op":"scan","table":"orders"},"groupBy":[0],"op":"aggregate"}`,
	"wide":      `{"cols":[0,1,2,3,4,5,6,7],"filter":{"attr":0,"op":"\u003c","pred":"cmp","val":{"word":9223372036854825808}},"op":"scan","table":"recent"}`,
}

func TestBenchmarkBodiesGolden(t *testing.T) {
	for name, p := range benchPlans() {
		got, err := MarshalNode(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != benchGolden[name] {
			t.Errorf("%s:\n got %s\nwant %s", name, got, benchGolden[name])
		}
	}
}

// planGen draws random plans covering every node, predicate and expression
// kind, with the strings and numbers that stress an encoder.
type planGen struct{ *rand.Rand }

var genStrings = []string{
	"", "R", "orders", `say "hi"`, `back\slash`, "tab\tnl\n", "nul\x00\x1f", "<a&b>", "caf\u00e9 \u4e16\u754c \U0001F600", "line\u2028sep\u2029",
}

func (g planGen) str() string { return genStrings[g.Intn(len(genStrings))] }

func (g planGen) word() storage.Word {
	switch g.Intn(4) {
	case 0:
		return storage.Word(g.Intn(10))
	case 1:
		return storage.EncodeInt(g.Int63() - g.Int63())
	case 2:
		return storage.EncodeFloat(g.NormFloat64() * 1e6)
	}
	return g.Uint64()
}

func (g planGen) ints() []int {
	if g.Intn(6) == 0 {
		return nil
	}
	out := make([]int, g.Intn(12))
	for i := range out {
		out[i] = g.Intn(40)
	}
	return out
}

func (g planGen) node(depth int) Node {
	k := g.Intn(8)
	if depth <= 1 {
		k = g.Intn(2) * 7 // a leaf: scan or insert
	}
	switch k {
	case 0:
		s := Scan{Table: g.str(), Cols: g.ints()}
		if g.Intn(2) == 0 {
			s.Filter = g.pred(depth - 1)
		}
		return s
	case 1:
		return Select{Child: g.node(depth - 1), Pred: g.pred(depth - 1)}
	case 2:
		p := Project{Child: g.node(depth - 1), Exprs: make([]expr.Expr, 1+g.Intn(3))}
		for i := range p.Exprs {
			p.Exprs[i] = g.expr(depth-1, storage.Type(g.Intn(4)))
		}
		if g.Intn(3) > 0 {
			p.Names = make([]string, g.Intn(len(p.Exprs)+1))
			for i := range p.Names {
				p.Names[i] = g.str()
			}
		}
		return p
	case 3:
		return HashJoin{Left: g.node(depth - 1), Right: g.node(depth - 1), LeftKey: g.Intn(5), RightKey: g.Intn(5)}
	case 4:
		a := Aggregate{Child: g.node(depth - 1), GroupBy: g.ints(), Aggs: make([]expr.AggSpec, 1+g.Intn(10))}
		for i := range a.Aggs {
			a.Aggs[i] = expr.AggSpec{Kind: expr.AggKind(g.Intn(5)), Name: g.str()}
			if a.Aggs[i].Kind != expr.Count || g.Intn(2) == 0 {
				a.Aggs[i].Arg = g.expr(depth-1, storage.Type(g.Intn(4)))
			}
		}
		return a
	case 5:
		s := Sort{Child: g.node(depth - 1), Keys: make([]SortKey, 1+g.Intn(3))}
		for i := range s.Keys {
			s.Keys[i] = SortKey{Pos: g.Intn(9), Desc: g.Intn(2) == 0}
		}
		return s
	case 6:
		return Limit{Child: g.node(depth - 1), N: g.Intn(1000)}
	}
	ins := Insert{Table: g.str(), Rows: make([][]storage.Word, g.Intn(12))}
	for i := range ins.Rows {
		ins.Rows[i] = make([]storage.Word, g.Intn(10))
		for j := range ins.Rows[i] {
			ins.Rows[i][j] = g.word()
		}
	}
	return ins
}

func (g planGen) pred(depth int) expr.Pred {
	k := g.Intn(7)
	if depth <= 1 {
		k = g.Intn(5)
	}
	switch k {
	case 0:
		return expr.Cmp{Attr: g.Intn(9), Op: expr.CmpOp(g.Intn(6)), Val: g.word()}
	case 1:
		return expr.Between{Attr: g.Intn(9), Lo: g.word(), Hi: g.word()}
	case 2:
		codes := make([]storage.Word, g.Intn(10))
		for i := range codes {
			codes[i] = storage.Word(g.Intn(200))
		}
		return expr.InSet{Attr: g.Intn(9), Set: storage.NewCodeSet(codes, g.Intn(300))}
	case 3:
		return expr.NotNull{Attr: g.Intn(9)}
	case 4:
		return expr.True{}
	}
	preds := make([]expr.Pred, g.Intn(10))
	for i := range preds {
		preds[i] = g.pred(depth - 1)
	}
	if k == 5 {
		return expr.And{Preds: preds}
	}
	return expr.Or{Preds: preds}
}

func (g planGen) expr(depth int, ty storage.Type) expr.Expr {
	switch k := g.Intn(3); {
	case k == 0 || depth <= 1 && k == 2:
		return expr.Col{Attr: g.Intn(9), Ty: ty}
	case k == 1:
		return expr.Const{Val: g.word(), Ty: ty}
	}
	return expr.Arith{Op: expr.ArithOp(g.Intn(4)), L: g.expr(depth-1, ty), R: g.expr(depth-1, ty)}
}

// TestPlanJSONGenerated: over generated plans of every kind, decoding the
// canonical form gives the plan back, and the canonical form is
// encoding/json's — read into `any` and marshalled again it comes out byte
// for byte the same, so key order, string escaping and number spelling are
// encoding/json's without a hand-written reference.
func TestPlanJSONGenerated(t *testing.T) {
	g := planGen{rand.New(rand.NewSource(7))}
	plans := []Node{}
	for _, p := range samplePlans() {
		plans = append(plans, p)
	}
	for i := 0; i < 1500; i++ {
		plans = append(plans, g.node(1+i%6))
	}
	for _, p := range plans {
		data, err := MarshalNode(p)
		if err != nil {
			t.Fatalf("marshal %#v: %v", p, err)
		}

		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var tree any
		if err := dec.Decode(&tree); err != nil {
			t.Fatalf("not JSON: %v\n%s", err, data)
		}
		if again, err := json.Marshal(tree); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("not encoding/json's canonical form (%v):\n ours: %s\ntheirs: %s", err, data, again)
		}

		back, err := UnmarshalNode(data)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !reflect.DeepEqual(canonTree(p), canonTree(back)) {
			t.Fatalf("round trip drifted:\n in: %#v\nout: %#v\nvia: %s", p, back, data)
		}
	}
}

// narrowings are documents the map-per-node decoder this one replaced
// accepted and this one rejects, on purpose.
var narrowings = []struct{ name, in, field string }{
	// The old decoder kept the last of a duplicated member.
	{"dup-op", `{"op":"limit","op":"scan","table":"R","cols":[0]}`, "plan.op"},
	{"dup-cols", `{"op":"scan","table":"R","cols":[0],"cols":[1]}`, "plan.cols"},
	{"dup-nested", `{"op":"limit","n":1,"child":{"op":"scan","table":"R","cols":[0],"table":"S"}}`, "plan.child.table"},
	{"dup-value", `{"op":"insert","table":"R","rows":[[{"int":1,"int":1}]]}`, "plan.rows[0][0].int"},
	{"dup-pred", `{"op":"scan","table":"R","cols":[0],"filter":{"pred":"true","pred":"true"}}`, "plan.filter.pred"},
	// A duplicate is found when it arrives, so an ill-typed first copy is
	// what gets named.
	{"dup-first-ill-typed", `{"op":"limit","n":"x","n":1,"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.n"},
	// The old decoder never looked at a member its node kind does not use;
	// this one reads every member the union knows as it arrives.
	{"foreign-ill-typed", `{"op":"scan","table":"R","cols":[0],"n":"x"}`, "plan.n"},
	{"foreign-null-object", `{"op":"limit","n":1,"child":{"op":"scan","table":"R","cols":[0]},"filter":null}`, "plan.filter"},
	{"foreign-invalid-child", `{"op":"scan","table":"R","cols":[0],"child":{"op":"limit"}}`, "plan.child.child"},
	{"foreign-in-pred", `{"op":"scan","table":"R","cols":[0],"filter":{"pred":"true","attr":"zero"}}`, "plan.filter.attr"},
	{"foreign-in-expr", `{"op":"project","exprs":[{"expr":"col","attr":0,"type":"int64","left":7}],"child":{"op":"scan","table":"R","cols":[0]}}`, "plan.exprs[0].left"},
	// encoding/json's own depth limit was 10,000, for known and unknown
	// members alike.
	{"unknown-member-too-deep", `{"op":"scan","table":"R","cols":[0],"x":` + strings.Repeat("[", MaxNesting+1) + strings.Repeat("]", MaxNesting+1) + `}`, "plan"},
}

func TestPlanJSONNarrowings(t *testing.T) {
	for _, tc := range narrowings {
		t.Run(tc.name, func(t *testing.T) {
			if !json.Valid([]byte(tc.in)) {
				t.Fatal("the case is itself malformed JSON")
			}
			_, err := UnmarshalNode([]byte(tc.in))
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want a FieldError", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("error names field %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
	// What stays accepted: members no kind knows (duplicated or not), a
	// kind's unused member when it is well-formed, null for scalars and lists.
	for _, in := range []string{
		`{"op":"scan","table":"R","cols":[0],"x":1,"x":{"y":[2]}}`,
		`{"op":"scan","table":"R","cols":[0],"n":7,"child":{"op":"scan","table":"S","cols":[]}}`,
		`{"op":"scan","table":null,"cols":null}`,
		`{"op":"insert","table":"R","rows":[null,[{"int":null}]]}`,
	} {
		if _, err := UnmarshalNode([]byte(in)); err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
}

// nested is depth objects deep: depth-1 limits around one scan, written
// the way a client would (tag first) or the canonical way (child first).
func nested(depth int, canonical bool) string {
	open, shut := `{"op":"limit","n":1,"child":`, `}`
	if canonical {
		open, shut = `{"child":`, `,"n":1,"op":"limit"}`
	}
	return strings.Repeat(open, depth-1) + `{"op":"scan","table":"R","cols":[0]}` + strings.Repeat(shut, depth-1)
}

func TestPlanJSONNestingCap(t *testing.T) {
	for _, canonical := range []bool{false, true} {
		if _, err := UnmarshalNode([]byte(nested(MaxNesting, canonical))); err != nil {
			t.Fatalf("depth %d rejected: %v", MaxNesting, err)
		}
		_, err := UnmarshalNode([]byte(nested(MaxNesting+1, canonical)))
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("depth %d: got %v, want a FieldError", MaxNesting+1, err)
		}
		if want := "plan" + strings.Repeat(".child", MaxNesting); fe.Field != want {
			t.Fatalf("depth %d: error names %q, want %q", MaxNesting+1, fe.Field, want)
		}
	}
	// A predicate or expression is an object like any other.
	deepPred := strings.Repeat(`{"pred":"and","preds":[`, MaxNesting) + `{"pred":"true"}` + strings.Repeat(`]}`, MaxNesting)
	if _, err := UnmarshalNode([]byte(`{"op":"scan","table":"R","cols":[0],"filter":` + deepPred + `}`)); err == nil {
		t.Fatal("a predicate nested past the cap was accepted")
	}

	// The decoder stops at the cap: the 9,000-level body that cost the old
	// decoder 13 s is cut off just past the cap's opening brace, and the
	// answer is still "too deep", not "malformed".
	hostile := nested(9000, false)
	cut := strings.Repeat(`{"op":"limit","n":1,"child":`, MaxNesting) + `{`
	for _, body := range []string{hostile, hostile[:len(cut)] + "\x00 not JSON"} {
		_, err := UnmarshalNode([]byte(body))
		var fe *FieldError
		if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "nested") {
			t.Fatalf("got %v, want the nesting cap", err)
		}
	}
}

// TestPlanJSONSyntaxErrorsNameRoot: bytes that are not JSON are a fault of
// the document, wherever they sit.
func TestPlanJSONSyntaxErrorsNameRoot(t *testing.T) {
	for _, in := range []string{
		``, `{`, `{"op":"scan","table":"R","cols":[0]} x`, `{"op":"scan","table":"R","cols":[0,]}`,
		`{"op":"limit","n":1.,"child":{"op":"scan","table":"R","cols":[0]}}`,
		`{"op":"limit","n":01,"child":{"op":"scan","table":"R","cols":[0]}}`,
		`{"op":"scan","table":"R\x","cols":[0]}`, "{\"op\":\"scan\",\"table\":\"R\x01\",\"cols\":[0]}",
		`{"op":"scan","table":"R","cols":[0],"x":tru}`, `{"op":"scan","table":"R","cols":[0],"x":{"a" 1}}`,
	} {
		_, err := UnmarshalNode([]byte(in))
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "plan" {
			t.Errorf("%q: got %v, want a FieldError at plan", in, err)
		}
		if json.Valid([]byte(in)) {
			t.Errorf("%q is valid JSON", in)
		}
	}
}

// TestPlanJSONIntegerFields pins encoding/json's rules for numbers headed
// for integer fields: no fraction, no exponent, in range, -0 only if signed.
func TestPlanJSONIntegerFields(t *testing.T) {
	for _, tc := range []struct {
		lit      string
		int, uns bool
	}{
		{"0", true, true}, {"-0", true, false}, {"7", true, true}, {"-7", true, false},
		{"1.0", false, false}, {"1e2", false, false}, {"1E+2", false, false},
		{"9223372036854775807", true, true}, {"9223372036854775808", false, true},
		{"-9223372036854775808", true, false}, {"-9223372036854775809", false, false},
		{"18446744073709551615", false, true}, {"18446744073709551616", false, false},
		{"null", true, true}, {`"1"`, false, false}, {"true", false, false},
	} {
		for field, want := range map[string]bool{"int": tc.int, "word": tc.uns, "code": tc.uns} {
			in := fmt.Sprintf(`{"op":"insert","table":"R","rows":[[{%q:%s}]]}`, field, tc.lit)
			if _, err := UnmarshalNode([]byte(in)); (err == nil) != want {
				t.Errorf("%s: accepted=%v, want %v (%v)", in, err == nil, want, err)
			}
		}
	}
	// A float field takes any number that fits a float64.
	for lit, want := range map[string]bool{"1": true, "-0": true, "1.5e300": true, "1e400": false, "1e-400": true, `"1"`: false} {
		in := fmt.Sprintf(`{"op":"insert","table":"R","rows":[[{"float":%s}]]}`, lit)
		if _, err := UnmarshalNode([]byte(in)); (err == nil) != want {
			t.Errorf("%s: accepted=%v, want %v (%v)", in, err == nil, want, err)
		}
	}
}

// TestPlanDecodeAllocs: the decoder allocates what the plan keeps — the
// node, its table name, its lists — plus the decoder itself.
func TestPlanDecodeAllocs(t *testing.T) {
	for name, ceiling := range map[string]float64{"insert4x4": 8, "point": 6} {
		body := []byte(benchGolden[name])
		got := testing.AllocsPerRun(200, func() {
			if _, err := UnmarshalNode(body); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("%s: %v allocations per decode, want at most %v", name, got, ceiling)
		}
	}
}
