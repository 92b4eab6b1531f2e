package expr

import (
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func rowOf(vals ...storage.Word) func(int) storage.Word {
	return func(a int) storage.Word { return vals[a] }
}

func TestCmpOpApply(t *testing.T) {
	five, six := storage.EncodeInt(5), storage.EncodeInt(6)
	cases := []struct {
		op   CmpOp
		a, b storage.Word
		want bool
	}{
		{Eq, five, five, true},
		{Eq, five, six, false},
		{Ne, five, six, true},
		{Lt, five, six, true},
		{Lt, six, five, false},
		{Le, five, five, true},
		{Gt, six, five, true},
		{Ge, five, six, false},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v.Apply: got %v, want %v", c.op, got, c.want)
		}
	}
}

func TestCmpOpNegativeNumbers(t *testing.T) {
	// The encoded comparison must respect signed order.
	f := func(a, b int64) bool {
		return Lt.Apply(storage.EncodeInt(a), storage.EncodeInt(b)) == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalPredLogic(t *testing.T) {
	row := rowOf(storage.EncodeInt(10), storage.EncodeInt(20), storage.Null)
	p10 := Cmp{Attr: 0, Op: Eq, Val: storage.EncodeInt(10)}
	p99 := Cmp{Attr: 1, Op: Eq, Val: storage.EncodeInt(99)}
	if !EvalPred(And{Preds: []Pred{p10}}, row) {
		t.Error("and(single true) failed")
	}
	if EvalPred(And{Preds: []Pred{p10, p99}}, row) {
		t.Error("and with false conjunct passed")
	}
	if !EvalPred(Or{Preds: []Pred{p99, p10}}, row) {
		t.Error("or with true disjunct failed")
	}
	if EvalPred(Or{}, row) {
		t.Error("empty or must be false")
	}
	if !EvalPred(And{}, row) {
		t.Error("empty and must be true")
	}
	if !EvalPred(True{}, row) || !EvalPred(nil, row) {
		t.Error("true/nil must pass")
	}
	if EvalPred(NotNull{Attr: 2}, row) || !EvalPred(NotNull{Attr: 0}, row) {
		t.Error("NotNull wrong")
	}
	if !EvalPred(Between{Attr: 0, Lo: storage.EncodeInt(5), Hi: storage.EncodeInt(10)}, row) {
		t.Error("between inclusive upper bound failed")
	}
}

func TestPredAttrs(t *testing.T) {
	p := And{Preds: []Pred{
		Cmp{Attr: 3, Op: Eq, Val: 0},
		Or{Preds: []Pred{Between{Attr: 1, Lo: 0, Hi: 9}, NotNull{Attr: 3}}},
	}}
	got := PredAttrs(p)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("PredAttrs = %v, want [1 3]", got)
	}
}

func TestConj(t *testing.T) {
	a := Cmp{Attr: 0, Op: Eq, Val: 1}
	b := Cmp{Attr: 1, Op: Eq, Val: 2}
	if _, ok := Conj().(True); !ok {
		t.Error("empty Conj must be True")
	}
	if _, ok := Conj(a).(Cmp); !ok {
		t.Error("singleton Conj must unwrap")
	}
	if and, ok := Conj(a, And{Preds: []Pred{b}}, nil, True{}).(And); !ok || len(and.Preds) != 2 {
		t.Error("Conj must flatten and drop trivia")
	}
}

func TestEvalExprArithmetic(t *testing.T) {
	row := rowOf(storage.EncodeInt(37), storage.EncodeFloat(2.5))
	bucket := Arith{Op: Mul, L: Arith{Op: Div, L: IntCol(0), R: IntConst(10)}, R: IntConst(10)}
	if got := storage.DecodeInt(EvalExpr(bucket, row)); got != 30 {
		t.Errorf("(37/10)*10 = %d, want 30", got)
	}
	fsum := Arith{Op: Add, L: Col{Attr: 1, Ty: storage.Float64}, R: Const{Val: storage.EncodeFloat(0.5), Ty: storage.Float64}}
	if got := storage.DecodeFloat(EvalExpr(fsum, row)); got != 3.0 {
		t.Errorf("2.5+0.5 = %v, want 3.0", got)
	}
	if got := storage.DecodeInt(EvalExpr(Arith{Op: Div, L: IntCol(0), R: IntConst(0)}, row)); got != 0 {
		t.Errorf("div by zero = %d, want 0 (defined)", got)
	}
}

func TestEvalExprNullPropagation(t *testing.T) {
	row := rowOf(storage.Null)
	e := Arith{Op: Add, L: IntCol(0), R: IntConst(5)}
	if EvalExpr(e, row) != storage.Null {
		t.Error("null must propagate through arithmetic")
	}
}

func TestExprAttrs(t *testing.T) {
	e := Arith{Op: Add, L: IntCol(4), R: Arith{Op: Mul, L: IntCol(2), R: IntConst(3)}}
	got := ExprAttrs(e)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("ExprAttrs = %v, want [2 4]", got)
	}
}

func TestAggStates(t *testing.T) {
	sum := NewAggState(AggSpec{Kind: Sum, Arg: IntCol(0)})
	minA := NewAggState(AggSpec{Kind: Min, Arg: IntCol(0)})
	maxA := NewAggState(AggSpec{Kind: Max, Arg: IntCol(0)})
	avg := NewAggState(AggSpec{Kind: Avg, Arg: IntCol(0)})
	cnt := NewAggState(AggSpec{Kind: Count})
	for _, v := range []int64{3, -1, 10} {
		row := rowOf(storage.EncodeInt(v))
		sum.Add(row)
		minA.Add(row)
		maxA.Add(row)
		avg.Add(row)
		cnt.Add(row)
	}
	if storage.DecodeInt(sum.Result()) != 12 {
		t.Errorf("sum = %d", storage.DecodeInt(sum.Result()))
	}
	if storage.DecodeInt(minA.Result()) != -1 || storage.DecodeInt(maxA.Result()) != 10 {
		t.Error("min/max wrong")
	}
	if storage.DecodeFloat(avg.Result()) != 4.0 {
		t.Errorf("avg = %v", storage.DecodeFloat(avg.Result()))
	}
	if storage.DecodeInt(cnt.Result()) != 3 {
		t.Error("count wrong")
	}
}

func TestAggStateNullHandling(t *testing.T) {
	sum := NewAggState(AggSpec{Kind: Sum, Arg: IntCol(0)})
	sum.Add(rowOf(storage.Null))
	sum.Add(rowOf(storage.EncodeInt(5)))
	if storage.DecodeInt(sum.Result()) != 5 {
		t.Error("null must be ignored by sum")
	}
	minEmpty := NewAggState(AggSpec{Kind: Min, Arg: IntCol(0)})
	if minEmpty.Result() != storage.Null {
		t.Error("min of empty input must be NULL")
	}
	avgEmpty := NewAggState(AggSpec{Kind: Avg, Arg: IntCol(0)})
	if avgEmpty.Result() != storage.Null {
		t.Error("avg of empty input must be NULL")
	}
}

func TestAggStateFloatSum(t *testing.T) {
	sum := NewAggState(AggSpec{Kind: Sum, Arg: Col{Attr: 0, Ty: storage.Float64}})
	for _, v := range []float64{1.5, 2.25, -0.75} {
		sum.Add(rowOf(storage.EncodeFloat(v)))
	}
	if got := storage.DecodeFloat(sum.Result()); got != 3.0 {
		t.Errorf("float sum = %v, want 3.0", got)
	}
}

func TestAggResultTypes(t *testing.T) {
	if (AggSpec{Kind: Count}).ResultType() != storage.Int64 {
		t.Error("count type")
	}
	if (AggSpec{Kind: Avg, Arg: IntCol(0)}).ResultType() != storage.Float64 {
		t.Error("avg type")
	}
	if (AggSpec{Kind: Sum, Arg: Col{Attr: 0, Ty: storage.Float64}}).ResultType() != storage.Float64 {
		t.Error("float sum type")
	}
	if (AggSpec{Kind: Sum, Arg: IntCol(0)}).ResultType() != storage.Int64 {
		t.Error("int sum type")
	}
}

// TestAddValueMatchesAdd: the bulk engines' AddValue path must agree with
// the interpreted Add path.
func TestAddValueMatchesAdd(t *testing.T) {
	f := func(vals []int64) bool {
		a := NewAggState(AggSpec{Kind: Sum, Arg: IntCol(0)})
		b := NewAggState(AggSpec{Kind: Sum, Arg: IntCol(0)})
		for _, v := range vals {
			a.Add(rowOf(storage.EncodeInt(v)))
			b.AddValue(storage.EncodeInt(v))
		}
		return a.Result() == b.Result()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
