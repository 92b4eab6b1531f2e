package expr

import "repro/internal/storage"

// ArithOp is an arithmetic operator on decoded values.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div // integer division for Int64 operands, / for Float64
)

// Expr is a scalar expression producing one encoded word per tuple.
type Expr interface {
	isExpr()
	// Type returns the value type the expression produces.
	Type() storage.Type
}

// Col references an attribute position.
type Col struct {
	Attr int
	Ty   storage.Type
}

// Const is a bound constant (already encoded).
type Const struct {
	Val storage.Word
	Ty  storage.Type
}

// Arith combines two expressions. Operands must share a numeric type.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (Col) isExpr()   {}
func (Const) isExpr() {}
func (Arith) isExpr() {}

func (c Col) Type() storage.Type   { return c.Ty }
func (c Const) Type() storage.Type { return c.Ty }
func (a Arith) Type() storage.Type { return a.L.Type() }

// IntCol and IntConst are constructor shorthands.
func IntCol(attr int) Col    { return Col{Attr: attr, Ty: storage.Int64} }
func IntConst(v int64) Const { return Const{Val: storage.EncodeInt(v), Ty: storage.Int64} }

// EvalExpr interprets e against a tuple. NULL propagates through
// arithmetic.
func EvalExpr(e Expr, row func(int) storage.Word) storage.Word {
	switch v := e.(type) {
	case Col:
		return row(v.Attr)
	case Const:
		return v.Val
	case Arith:
		l := EvalExpr(v.L, row)
		r := EvalExpr(v.R, row)
		if l == storage.Null || r == storage.Null {
			return storage.Null
		}
		if v.Type() == storage.Float64 {
			return storage.EncodeFloat(applyF(v.Op, storage.DecodeFloat(l), storage.DecodeFloat(r)))
		}
		return storage.EncodeInt(applyI(v.Op, storage.DecodeInt(l), storage.DecodeInt(r)))
	}
	return storage.Null
}

func applyI(op ArithOp, a, b int64) int64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	}
	return 0
}

func applyF(op ArithOp, a, b float64) float64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	}
	return 0
}

// ExprAttrs returns the sorted distinct attribute positions e references.
func ExprAttrs(e Expr) []int {
	set := map[int]struct{}{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case Col:
			set[v.Attr] = struct{}{}
		case Arith:
			walk(v.L)
			walk(v.R)
		}
	}
	walk(e)
	return sortedKeys(set)
}

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	Count AggKind = iota
	Sum
	Min
	Max
	Avg
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[k]
}

// AggSpec is one aggregate of an Aggregate plan node. Arg is nil for
// Count(*). The result type is Float64 for Avg and for aggregates over
// float arguments, Int64 otherwise.
type AggSpec struct {
	Kind AggKind
	Arg  Expr
	Name string
}

// ResultType returns the type of the aggregate's output.
func (a AggSpec) ResultType() storage.Type {
	if a.Kind == Count {
		return storage.Int64
	}
	if a.Kind == Avg {
		return storage.Float64
	}
	return a.Arg.Type()
}

// AggState accumulates one aggregate. It handles both integer and float
// arguments according to the spec's type.
type AggState struct {
	spec  AggSpec
	count int64
	sumI  int64
	sumF  float64
	minW  storage.Word
	maxW  storage.Word
	seen  bool
}

// NewAggState initializes accumulation for spec.
func NewAggState(spec AggSpec) AggState {
	return AggState{spec: spec}
}

// Add folds one tuple into the state.
func (st *AggState) Add(row func(int) storage.Word) {
	if st.spec.Kind == Count {
		st.count++
		return
	}
	st.AddValue(EvalExpr(st.spec.Arg, row))
}

// AddValue folds one already-evaluated argument value into the state; the
// bulk engines use it to fold precomputed argument columns.
func (st *AggState) AddValue(w storage.Word) {
	if st.spec.Kind == Count {
		st.count++
		return
	}
	if w == storage.Null {
		return
	}
	st.count++
	switch st.spec.Kind {
	case Sum, Avg:
		if st.spec.Arg.Type() == storage.Float64 {
			st.sumF += storage.DecodeFloat(w)
		} else {
			st.sumI += storage.DecodeInt(w)
		}
	case Min:
		if !st.seen || w < st.minW {
			st.minW = w
		}
	case Max:
		if !st.seen || w > st.maxW {
			st.maxW = w
		}
	}
	st.seen = true
}

// Merge folds another state for the same spec into st, as if o's tuples
// had been added after st's. Counts, integer sums and min/max merge
// exactly; float sums reassociate the addition order, so engines that
// need bit-reproducible float results must not merge-parallelize float
// aggregates (see MergeExact).
func (st *AggState) Merge(o *AggState) {
	st.count += o.count
	st.sumI += o.sumI
	st.sumF += o.sumF
	if o.seen {
		if !st.seen || o.minW < st.minW {
			st.minW = o.minW
		}
		if !st.seen || o.maxW > st.maxW {
			st.maxW = o.maxW
		}
		st.seen = true
	}
}

// MergeExact reports whether partial states of every listed aggregate
// merge to bit-identical results regardless of how tuples are partitioned:
// true for count, min, max and integer sum/avg; false once a float sum is
// involved (float addition is not associative).
func MergeExact(aggs []AggSpec) bool {
	for _, a := range aggs {
		switch a.Kind {
		case Count, Min, Max:
		case Sum, Avg:
			if a.Arg.Type() == storage.Float64 {
				return false
			}
		}
	}
	return true
}

// Result returns the encoded aggregate value.
func (st *AggState) Result() storage.Word {
	switch st.spec.Kind {
	case Count:
		return storage.EncodeInt(st.count)
	case Sum:
		if st.spec.Arg.Type() == storage.Float64 {
			return storage.EncodeFloat(st.sumF)
		}
		return storage.EncodeInt(st.sumI)
	case Avg:
		if st.count == 0 {
			return storage.Null
		}
		total := st.sumF
		if st.spec.Arg.Type() != storage.Float64 {
			total = float64(st.sumI)
		}
		return storage.EncodeFloat(total / float64(st.count))
	case Min:
		if !st.seen {
			return storage.Null
		}
		return st.minW
	case Max:
		if !st.seen {
			return storage.Null
		}
		return st.maxW
	}
	return storage.Null
}
