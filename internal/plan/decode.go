package plan

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/expr"
	"repro/internal/jsonx"
	"repro/internal/storage"
)

// The decoder reads a plan document in one pass. An object's members are
// taken as they arrive and fill the union of its kind's fields — the
// canonical form sorts keys, so the tag ("op", "pred", "expr") that says
// which fields matter comes after most of them — and what the kind requires
// is checked at the closing brace. Consequences a client can see:
//
//   - a member the union knows must hold a well-formed value of its type
//     even when the object's kind ignores it ({"op":"scan",...,"n":"x"} is
//     rejected); members no kind knows are skipped;
//   - a member may appear once per object;
//   - objects may nest MaxNesting deep.
//
// As in encoding/json, null stands for a scalar's zero value or an empty
// list, never for an object.

// UnmarshalNode decodes a plan from JSON, validating structure as it goes;
// errors name the offending field. The result is structurally valid but
// not yet bound to any catalog — run Check before executing it.
func UnmarshalNode(data []byte) (Node, error) {
	n, end, err := UnmarshalNodePrefix(data)
	if err != nil {
		return nil, err
	}
	if s := (jsonx.Scanner{Data: data, Pos: end}); !s.End() {
		return nil, syntaxErr(s.Pos)
	}
	return n, nil
}

// UnmarshalNodePrefix decodes the plan document data starts with and
// returns the offset just past it, for a caller (the request envelope)
// whose own document goes on after the plan.
func UnmarshalNodePrefix(data []byte) (n Node, end int, err error) {
	d := decoder{s: jsonx.Scanner{Data: data}}
	if n, err = d.node(); err != nil {
		return nil, 0, under("plan", err)
	}
	return n, d.s.Pos, nil
}

type decoder struct {
	s     jsonx.Scanner
	depth int // objects open around the cursor
}

// syntaxErr reports bytes that are not JSON. Whatever value they sit in,
// the document as a whole is what is wrong, so the field is the root.
func syntaxErr(pos int) error {
	return &FieldError{Field: "plan", Msg: fmt.Sprintf("malformed JSON near byte %d", pos), rooted: true}
}

func (d *decoder) syntax() error { return syntaxErr(d.s.Pos) }

// mismatch is called when the value at the cursor is not what the field
// takes: null is accepted as the zero value, anything else is either
// malformed JSON or a well-formed value of the wrong type.
func (d *decoder) mismatch(want string) error {
	if d.s.Literal("null") {
		return nil
	}
	if !d.s.SkipValue(MaxNesting) {
		return d.syntax()
	}
	return fieldErrf("", "expected %s", want)
}

func (d *decoder) str() ([]byte, error) {
	if v, ok := d.s.String(); ok {
		return v, nil
	}
	return nil, d.mismatch("a string")
}

func (d *decoder) text() (string, error) {
	v, err := d.str()
	return string(v), err
}

func (d *decoder) int() (int, error) {
	if v, ok := d.s.Int(); ok {
		return int(v), nil
	}
	return 0, d.mismatch("an integer")
}

func (d *decoder) word() (storage.Word, error) {
	if v, ok := d.s.Uint(); ok {
		return v, nil
	}
	return 0, d.mismatch("an unsigned integer")
}

func (d *decoder) float() (float64, error) {
	if v, ok := d.s.Float(); ok {
		return v, nil
	}
	return 0, d.mismatch("a number")
}

func (d *decoder) bool() (bool, error) {
	if v, ok := d.s.Bool(); ok {
		return v, nil
	}
	return false, d.mismatch("a boolean")
}

// list decodes an array, reading each element with read; null is an empty
// list. indexed says whether a fault inside element i is reported at
// "[i]" (lists of objects) or at the list itself (lists of scalars).
func list[T any](d *decoder, indexed bool, read func(*decoder) (T, error)) ([]T, error) {
	if !d.s.Consume('[') {
		return nil, d.mismatch("an array")
	}
	// Elements collect in a stack buffer and are copied out at their exact
	// count, so a short list costs one allocation, not append's doublings.
	var buf [8]T
	out := buf[:0]
	for i := 0; ; i++ {
		more, ok := d.s.More(i == 0, ']')
		if !ok {
			return nil, d.syntax()
		}
		if !more {
			return append(make([]T, 0, len(out)), out...), nil
		}
		v, err := read(d)
		if err != nil {
			if indexed {
				err = under(elem(i), err)
			}
			return nil, err
		}
		out = append(out, v)
	}
}

// object records which members of a decoded JSON object were present.
type object struct {
	keys []string // the union's member names; a member's index is its bit in seen
	seen uint32
}

// object decodes one JSON object of the union whose member names are keys:
// member is called with the cursor at the value of each one that arrives,
// members the union does not know are skipped.
func (d *decoder) object(keys []string, member func(key string) error) (object, error) {
	o := object{keys: keys}
	if !d.s.Consume('{') {
		err := d.mismatch("a JSON object")
		if err == nil {
			err = fieldErrf("", "expected a JSON object, got null")
		}
		return o, err
	}
	if d.depth++; d.depth > MaxNesting {
		return o, fieldErrf("", "objects nested more than %d deep", MaxNesting)
	}
	for first := true; ; first = false {
		more, ok := d.s.More(first, '}')
		if !ok {
			return o, d.syntax()
		}
		if !more {
			d.depth--
			return o, nil
		}
		key, ok := d.s.Key()
		if !ok {
			return o, d.syntax()
		}
		k := slices.IndexFunc(keys, func(name string) bool { return name == string(key) })
		switch {
		case k < 0:
			if !d.s.SkipValue(MaxNesting) {
				return o, d.syntax()
			}
			continue
		case o.seen&(1<<k) != 0:
			return o, fieldErrf(keys[k], "duplicate field")
		}
		o.seen |= 1 << k
		if err := member(keys[k]); err != nil {
			return o, under(keys[k], err)
		}
	}
}

func (o *object) has(key string) bool { return o.seen&(1<<slices.Index(o.keys, key)) != 0 }

// need reports the first of the members the object did not have.
func (o *object) need(members ...string) error {
	for _, key := range members {
		if !o.has(key) {
			return fieldErrf(key, "missing required field")
		}
	}
	return nil
}

// firstErr picks the first fault among checks that were all evaluated.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nonNeg checks member field's value v; nonNegAll a list member's entries.
func nonNeg(field, what string, v int) error {
	if v < 0 {
		return fieldErrf(field, "%s must be >= 0, got %d", what, v)
	}
	return nil
}

func nonNegAll(field, what string, xs []int) error {
	for i, x := range xs {
		if x < 0 {
			return nonNeg(field+elem(i), what, x)
		}
	}
	return nil
}

var nodeKeys = []string{"op", "child", "cols", "table", "filter", "rows", "pred", "exprs", "names",
	"left", "right", "leftKey", "rightKey", "groupBy", "aggs", "keys", "n"}

func (d *decoder) node() (Node, error) {
	var f struct {
		op                   []byte
		table                string
		cols, groupBy        []int
		filter, pred         expr.Pred
		child, left, right   Node
		exprs                []expr.Expr
		names                []string
		leftKey, rightKey, n int
		aggs                 []expr.AggSpec
		keys                 []SortKey
		rows                 [][]storage.Word
	}
	o, err := d.object(nodeKeys, func(key string) (err error) {
		switch key {
		case "op":
			f.op, err = d.str()
		case "table":
			f.table, err = d.text()
		case "cols":
			f.cols, err = list(d, false, (*decoder).int)
		case "groupBy":
			f.groupBy, err = list(d, false, (*decoder).int)
		case "filter":
			f.filter, err = d.pred()
		case "pred":
			f.pred, err = d.pred()
		case "child":
			f.child, err = d.node()
		case "left":
			f.left, err = d.node()
		case "right":
			f.right, err = d.node()
		case "exprs":
			f.exprs, err = list(d, true, (*decoder).expr)
		case "names":
			f.names, err = list(d, false, (*decoder).text)
		case "leftKey":
			f.leftKey, err = d.int()
		case "rightKey":
			f.rightKey, err = d.int()
		case "n":
			f.n, err = d.int()
		case "aggs":
			f.aggs, err = list(d, true, (*decoder).agg)
		case "keys":
			f.keys, err = list(d, true, (*decoder).sortKey)
		case "rows":
			f.rows, err = list(d, true, (*decoder).row)
		}
		return err
	})
	if err = firstErr(err, o.need("op")); err != nil {
		return nil, err
	}
	var n Node
	switch string(f.op) {
	case "scan":
		n, err = Scan{Table: f.table, Filter: f.filter, Cols: f.cols},
			firstErr(o.need("table", "cols"), nonNegAll("cols", "attribute index", f.cols))
	case "select":
		n, err = Select{Child: f.child, Pred: f.pred}, o.need("child", "pred")
	case "project":
		n, err = Project{Child: f.child, Exprs: f.exprs, Names: f.names}, o.need("child", "exprs")
		if err == nil && len(f.exprs) == 0 {
			err = fieldErrf("exprs", "projection needs at least one expression")
		}
		if err == nil && len(f.names) > len(f.exprs) {
			err = fieldErrf("names", "%d names for %d expressions", len(f.names), len(f.exprs))
		}
	case "hashjoin":
		n, err = HashJoin{Left: f.left, Right: f.right, LeftKey: f.leftKey, RightKey: f.rightKey},
			firstErr(o.need("left", "right", "leftKey", "rightKey"),
				nonNeg("leftKey", "key position", f.leftKey), nonNeg("rightKey", "key position", f.rightKey))
	case "aggregate":
		n, err = Aggregate{Child: f.child, GroupBy: f.groupBy, Aggs: f.aggs},
			firstErr(o.need("child"), nonNegAll("groupBy", "group position", f.groupBy), o.need("aggs"))
		if err == nil && len(f.aggs) == 0 {
			err = fieldErrf("aggs", "aggregate needs at least one aggregate spec")
		}
	case "sort":
		n, err = Sort{Child: f.child, Keys: f.keys}, o.need("child", "keys")
		if err == nil && len(f.keys) == 0 {
			err = fieldErrf("keys", "sort needs at least one key")
		}
	case "limit":
		n, err = Limit{Child: f.child, N: f.n}, firstErr(o.need("child", "n"), nonNeg("n", "limit", f.n))
	case "insert":
		n, err = Insert{Table: f.table, Rows: f.rows}, o.need("table", "rows")
	case "":
		err = fieldErrf("op", "missing operator name")
	default:
		err = fieldErrf("op", "unknown operator %q (want scan, select, project, hashjoin, aggregate, sort, limit or insert)", f.op)
	}
	return n, err
}

func (d *decoder) row() ([]storage.Word, error) { return list(d, true, (*decoder).value) }

var sortKeyKeys = []string{"pos", "desc"}

func (d *decoder) sortKey() (key SortKey, err error) {
	o, err := d.object(sortKeyKeys, func(k string) (err error) {
		if k == "pos" {
			key.Pos, err = d.int()
		} else {
			key.Desc, err = d.bool()
		}
		return err
	})
	return key, firstErr(err, o.need("pos"), nonNeg("pos", "sort position", key.Pos))
}

var predKeys = []string{"pred", "attr", "op", "val", "lo", "hi", "codes", "space", "preds"}

func (d *decoder) pred() (expr.Pred, error) {
	var f struct {
		kind, op    []byte
		attr, space int
		val, lo, hi storage.Word
		codes       []storage.Word
		preds       []expr.Pred
	}
	o, err := d.object(predKeys, func(key string) (err error) {
		switch key {
		case "pred":
			f.kind, err = d.str()
		case "attr":
			f.attr, err = d.int()
		case "op":
			f.op, err = d.str()
		case "val":
			f.val, err = d.value()
		case "lo":
			f.lo, err = d.value()
		case "hi":
			f.hi, err = d.value()
		case "codes":
			f.codes, err = list(d, false, (*decoder).word)
		case "space":
			f.space, err = d.int()
		case "preds":
			f.preds, err = list(d, true, (*decoder).pred)
		}
		return err
	})
	if err = firstErr(err, o.need("pred")); err != nil {
		return nil, err
	}
	attr := func() error { return firstErr(o.need("attr"), nonNeg("attr", "attribute index", f.attr)) }
	var p expr.Pred
	switch string(f.kind) {
	case "cmp":
		op := slices.IndexFunc(cmpOps, func(name string) bool { return name == string(f.op) })
		if err = firstErr(attr(), o.need("op")); err == nil && op < 0 {
			err = fieldErrf("op", "unknown comparison %q (want =, <>, <, <=, > or >=)", f.op)
		}
		p, err = expr.Cmp{Attr: f.attr, Op: expr.CmpOp(op), Val: f.val}, firstErr(err, o.need("val"))
	case "between":
		p, err = expr.Between{Attr: f.attr, Lo: f.lo, Hi: f.hi}, firstErr(attr(), o.need("lo", "hi"))
	case "inset":
		// The bitset allocates space/8 bytes up front, so the bound is a
		// request-size guard, not just a sanity check: it must hold before
		// NewCodeSet runs.
		space := f.space
		if err = firstErr(attr(), o.need("codes")); err == nil && (space < 0 || space > maxCodeSpace) {
			err = fieldErrf("space", "code space must be in [0, %d], got %d", maxCodeSpace, space)
		}
		for _, c := range f.codes {
			if err == nil && c >= maxCodeSpace {
				err = fieldErrf("codes", "dictionary code %d over the %d limit", c, maxCodeSpace)
			}
			space = max(space, int(c)+1)
		}
		if err == nil {
			p = expr.InSet{Attr: f.attr, Set: storage.NewCodeSet(f.codes, space)}
		}
	case "notnull":
		p, err = expr.NotNull{Attr: f.attr}, attr()
	case "and":
		p, err = expr.And{Preds: f.preds}, o.need("preds")
	case "or":
		p, err = expr.Or{Preds: f.preds}, o.need("preds")
	case "true":
		p = expr.True{}
	case "":
		err = fieldErrf("pred", "missing predicate kind")
	default:
		err = fieldErrf("pred", "unknown predicate %q (want cmp, between, inset, notnull, and, or or true)", f.kind)
	}
	return p, err
}

// The names of expr's enumerations, indexed by their values.
var (
	cmpOps   = []string{expr.Eq: "=", expr.Ne: "<>", expr.Lt: "<", expr.Le: "<=", expr.Gt: ">", expr.Ge: ">="}
	arithOps = []string{expr.Add: "+", expr.Sub: "-", expr.Mul: "*", expr.Div: "/"}
	aggKinds = []string{expr.Count: "count", expr.Sum: "sum", expr.Min: "min", expr.Max: "max", expr.Avg: "avg"}
	types    = []string{storage.Int64: "int64", storage.Float64: "float64", storage.String: "string", storage.Bool: "bool"}
)

var exprKeys = []string{"expr", "attr", "type", "val", "op", "left", "right"}

func (d *decoder) expr() (expr.Expr, error) {
	var f struct {
		kind, ty, op []byte
		attr         int
		val          storage.Word
		left, right  expr.Expr
	}
	o, err := d.object(exprKeys, func(key string) (err error) {
		switch key {
		case "expr":
			f.kind, err = d.str()
		case "attr":
			f.attr, err = d.int()
		case "type":
			f.ty, err = d.str()
		case "val":
			f.val, err = d.value()
		case "op":
			f.op, err = d.str()
		case "left":
			f.left, err = d.expr()
		case "right":
			f.right, err = d.expr()
		}
		return err
	})
	if err = firstErr(err, o.need("expr")); err != nil {
		return nil, err
	}
	ty := slices.IndexFunc(types, func(name string) bool { return name == string(f.ty) })
	typed := func() error {
		if err := o.need("type"); err != nil || ty >= 0 {
			return err
		}
		return fieldErrf("type", "unknown type %q (want int64, float64, string or bool)", f.ty)
	}
	var x expr.Expr
	switch string(f.kind) {
	case "col":
		x, err = expr.Col{Attr: f.attr, Ty: storage.Type(ty)},
			firstErr(o.need("attr"), nonNeg("attr", "attribute index", f.attr), typed())
	case "const":
		x, err = expr.Const{Val: f.val, Ty: storage.Type(ty)}, firstErr(typed(), o.need("val"))
	case "arith":
		op := slices.IndexFunc(arithOps, func(name string) bool { return name == string(f.op) })
		if err = o.need("op"); err == nil && op < 0 {
			err = fieldErrf("op", "unknown arithmetic operator %q (want +, -, * or /)", f.op)
		}
		if err = firstErr(err, o.need("left", "right")); err == nil && f.left.Type() != f.right.Type() {
			err = fieldErrf("right", "operand types differ: %s vs %s", f.left.Type(), f.right.Type())
		}
		x = expr.Arith{Op: expr.ArithOp(op), L: f.left, R: f.right}
	case "":
		err = fieldErrf("expr", "missing expression kind")
	default:
		err = fieldErrf("expr", "unknown expression %q (want col, const or arith)", f.kind)
	}
	return x, err
}

var aggKeys = []string{"agg", "name", "arg"}

func (d *decoder) agg() (spec expr.AggSpec, err error) {
	var kind []byte
	o, err := d.object(aggKeys, func(key string) (err error) {
		switch key {
		case "agg":
			kind, err = d.str()
		case "name":
			spec.Name, err = d.text()
		case "arg":
			spec.Arg, err = d.expr()
		}
		return err
	})
	k := slices.IndexFunc(aggKinds, func(name string) bool { return name == string(kind) })
	if err = firstErr(err, o.need("agg")); err == nil && k < 0 {
		err = fieldErrf("agg", "unknown aggregate %q (want count, sum, min, max or avg)", kind)
	}
	if spec.Kind = expr.AggKind(k); err == nil && spec.Arg == nil && spec.Kind != expr.Count {
		err = fieldErrf("arg", "aggregate %q requires an argument", kind)
	}
	return spec, err
}

var valueKeys = []string{"word", "int", "float", "bool", "code"}

// value decodes a typed constant object into its word encoding. Exactly
// one of the value fields must be present.
func (d *decoder) value() (w storage.Word, err error) {
	o, err := d.object(valueKeys, func(key string) (err error) {
		switch key {
		case "int":
			var v int
			v, err = d.int()
			w = storage.EncodeInt(int64(v))
		case "float":
			var v float64
			v, err = d.float()
			w = storage.EncodeFloat(v)
		case "bool":
			var v bool
			v, err = d.bool()
			w = storage.EncodeBool(v)
		default: // "code", "word": raw unsigned encodings
			w, err = d.word()
		}
		return err
	})
	if n := bits.OnesCount32(o.seen); err == nil && n != 1 {
		err = fieldErrf("", "want exactly one of int, float, bool, code or word, got %d", n)
	}
	return w, err
}
