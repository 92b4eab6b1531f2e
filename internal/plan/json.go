package plan

import (
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/jsonx"
	"repro/internal/storage"
)

// JSON (de)serialization of plans, used by the serving front-end (plans
// arrive as request bodies) and by the service's prepared-plan cache
// (the canonical encoding doubles as the cache key). The format is a
// tagged union: nodes carry "op", predicates "pred", scalar expressions
// "expr". Constants are typed objects with exactly one value field:
//
//	{"int": 5} {"float": 1.5} {"bool": true} {"code": 7} {"word": 18...}
//
// "code" is a dictionary code for string attributes; "word" is the raw
// order-preserving encoding (what MarshalNode emits, since plan constants
// do not carry their type). Decoding errors name the offending field by
// its dotted path, e.g. `plan.child.filter.op`.
//
// Both directions are one pass over bytes: decode.go reads through a
// jsonx.Scanner, AppendNode writes the canonical form directly, and
// neither builds an intermediate tree.

// MaxNesting bounds how deep a decoded plan document may nest nodes,
// predicates and expressions, counted together along one path. Check,
// Normalize, AppendNode and the compilers all recurse over the tree, and a
// remote plan must not pick their stack depth.
const MaxNesting = 128

// maxCodeSpace bounds an inset predicate's dictionary-code space: the
// decoded bitset allocates space/8 bytes eagerly, so a remote plan must
// not pick the size. 1<<24 codes (a 2 MB set) is far beyond any
// dictionary the benchmarks build.
const maxCodeSpace = 1 << 24

// FieldError is a validation failure naming the JSON field it occurred at.
type FieldError struct {
	Field string // dotted path from the root, e.g. "plan.left.cols[2]"
	Msg   string

	rooted bool // Field is already absolute: under must not prefix it
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("plan: invalid field %s: %s", e.Field, e.Msg)
}

func fieldErrf(path, format string, args ...any) error {
	return &FieldError{Field: path, Msg: fmt.Sprintf(format, args...)}
}

// Inside this file and decode.go field paths are built only once something
// has failed: the function that finds a fault names it relative to the
// value it was handling ("" for the value itself, "table" for its member),
// and each enclosing value prefixes the member or element the failing value
// sat in as the error travels up. The happy path carries no path at all.

// under prefixes err's field with seg, a member name or an "[i]" element.
// An error that already names an absolute path is left alone.
func under(seg string, err error) error {
	fe, ok := err.(*FieldError)
	switch {
	case !ok || fe.rooted:
	case fe.Field == "" || fe.Field[0] == '[':
		fe.Field = seg + fe.Field
	default:
		fe.Field = seg + "." + fe.Field
	}
	return err
}

func elem(i int) string { return "[" + strconv.Itoa(i) + "]" }

// MarshalNode encodes a plan to its canonical JSON form. Every plan built
// from the package's node types round-trips through UnmarshalNode.
func MarshalNode(n Node) ([]byte, error) { return AppendNode(nil, n) }

// AppendNode appends the canonical JSON form of n to dst: object keys in
// sorted order, strings escaped as encoding/json escapes them, no
// whitespace — byte for byte what json.Marshal makes of the equivalent
// map[string]any tree. On an error dst is returned as it came.
func AppendNode(dst []byte, n Node) ([]byte, error) {
	out, err := appendNode(dst, n)
	if err != nil {
		return dst, under("plan", err)
	}
	return out, nil
}

func appendNode(b []byte, n Node) ([]byte, error) {
	var err error
	switch v := n.(type) {
	case Scan:
		b = appendInts(append(b, `{"cols":`...), v.Cols)
		if v.Filter != nil {
			if b, err = appendPred(append(b, `,"filter":`...), v.Filter); err != nil {
				return nil, under("filter", err)
			}
		}
		b = jsonx.AppendString(append(b, `,"op":"scan","table":`...), v.Table)
	case Select:
		if b, err = appendNode(append(b, `{"child":`...), v.Child); err != nil {
			return nil, under("child", err)
		}
		b = append(b, `,"op":"select","pred":`...)
		if v.Pred == nil {
			b = append(b, "null"...)
		} else if b, err = appendPred(b, v.Pred); err != nil {
			return nil, under("pred", err)
		}
	case Project:
		if b, err = appendNode(append(b, `{"child":`...), v.Child); err != nil {
			return nil, under("child", err)
		}
		b = append(b, `,"exprs":[`...)
		for i, x := range v.Exprs {
			if b, err = appendExpr(appendComma(b, i), x); err != nil {
				return nil, under("exprs", under(elem(i), err))
			}
		}
		b = append(b, `],"names":`...)
		if v.Names == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, name := range v.Names {
				b = jsonx.AppendString(appendComma(b, i), name)
			}
			b = append(b, ']')
		}
		b = append(b, `,"op":"project"`...)
	case HashJoin:
		if b, err = appendNode(append(b, `{"left":`...), v.Left); err != nil {
			return nil, under("left", err)
		}
		b = strconv.AppendInt(append(b, `,"leftKey":`...), int64(v.LeftKey), 10)
		if b, err = appendNode(append(b, `,"op":"hashjoin","right":`...), v.Right); err != nil {
			return nil, under("right", err)
		}
		b = strconv.AppendInt(append(b, `,"rightKey":`...), int64(v.RightKey), 10)
	case Aggregate:
		b = append(b, `{"aggs":[`...)
		for i, a := range v.Aggs {
			if b, err = appendAgg(appendComma(b, i), a); err != nil {
				return nil, under("aggs", under(elem(i), err))
			}
		}
		if b, err = appendNode(append(b, `],"child":`...), v.Child); err != nil {
			return nil, under("child", err)
		}
		b = appendInts(append(b, `,"groupBy":`...), v.GroupBy)
		b = append(b, `,"op":"aggregate"`...)
	case Sort:
		if b, err = appendNode(append(b, `{"child":`...), v.Child); err != nil {
			return nil, under("child", err)
		}
		b = append(b, `,"keys":[`...)
		for i, k := range v.Keys {
			b = strconv.AppendBool(append(appendComma(b, i), `{"desc":`...), k.Desc)
			b = strconv.AppendInt(append(b, `,"pos":`...), int64(k.Pos), 10)
			b = append(b, '}')
		}
		b = append(b, `],"op":"sort"`...)
	case Limit:
		if b, err = appendNode(append(b, `{"child":`...), v.Child); err != nil {
			return nil, under("child", err)
		}
		b = strconv.AppendInt(append(b, `,"n":`...), int64(v.N), 10)
		b = append(b, `,"op":"limit"`...)
	case Insert:
		b = append(b, `{"op":"insert","rows":[`...)
		for i, row := range v.Rows {
			b = append(appendComma(b, i), '[')
			for j, w := range row {
				b = appendWord(appendComma(b, j), w)
			}
			b = append(b, ']')
		}
		b = jsonx.AppendString(append(b, `],"table":`...), v.Table)
	case nil:
		return nil, fieldErrf("", "missing plan node")
	default:
		return nil, fieldErrf("", "unsupported plan node type %T", n)
	}
	return append(b, '}'), nil
}

func appendComma(b []byte, i int) []byte {
	if i > 0 {
		return append(b, ',')
	}
	return b
}

// appendInts writes a nil list as [], never null: Cols and GroupBy decode
// to the same plan either way, and the cache key must not tell them apart.
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		b = strconv.AppendInt(appendComma(b, i), int64(x), 10)
	}
	return append(b, ']')
}

func appendWord(b []byte, w storage.Word) []byte {
	return append(strconv.AppendUint(append(b, `{"word":`...), w, 10), '}')
}

func appendAttr(b []byte, attr int) []byte {
	return strconv.AppendInt(append(b, `{"attr":`...), int64(attr), 10)
}

func appendPred(b []byte, p expr.Pred) ([]byte, error) {
	switch v := p.(type) {
	case expr.Cmp:
		b = jsonx.AppendString(append(appendAttr(b, v.Attr), `,"op":`...), v.Op.String())
		b = appendWord(append(b, `,"pred":"cmp","val":`...), v.Val)
	case expr.Between:
		b = appendWord(append(appendAttr(b, v.Attr), `,"hi":`...), v.Hi)
		b = appendWord(append(b, `,"lo":`...), v.Lo)
		b = append(b, `,"pred":"between"`...)
	case expr.InSet:
		if v.Set == nil {
			return nil, fieldErrf("codes", "inset predicate has no code set")
		}
		b = append(appendAttr(b, v.Attr), `,"codes":[`...)
		for i, c := range v.Set.Codes() {
			b = strconv.AppendUint(appendComma(b, i), c, 10)
		}
		b = strconv.AppendInt(append(b, `],"pred":"inset","space":`...), int64(v.Set.Size()), 10)
	case expr.NotNull:
		b = append(appendAttr(b, v.Attr), `,"pred":"notnull"`...)
	case expr.And:
		return appendPredList(b, "and", v.Preds)
	case expr.Or:
		return appendPredList(b, "or", v.Preds)
	case expr.True:
		b = append(b, `{"pred":"true"`...)
	case nil:
		return nil, fieldErrf("", "missing predicate")
	default:
		return nil, fieldErrf("", "unsupported predicate type %T", p)
	}
	return append(b, '}'), nil
}

func appendPredList(b []byte, kind string, preds []expr.Pred) ([]byte, error) {
	b = append(append(append(b, `{"pred":"`...), kind...), `","preds":[`...)
	for i, c := range preds {
		var err error
		if b, err = appendPred(appendComma(b, i), c); err != nil {
			return nil, under("preds", under(elem(i), err))
		}
	}
	return append(b, "]}"...), nil
}

func appendExpr(b []byte, x expr.Expr) ([]byte, error) {
	var err error
	switch v := x.(type) {
	case expr.Col:
		b = jsonx.AppendString(append(appendAttr(b, v.Attr), `,"expr":"col","type":`...), v.Ty.String())
	case expr.Const:
		b = jsonx.AppendString(append(b, `{"expr":"const","type":`...), v.Ty.String())
		b = appendWord(append(b, `,"val":`...), v.Val)
	case expr.Arith:
		if b, err = appendExpr(append(b, `{"expr":"arith","left":`...), v.L); err != nil {
			return nil, under("left", err)
		}
		b = jsonx.AppendString(append(b, `,"op":`...), arithOpName(v.Op))
		if b, err = appendExpr(append(b, `,"right":`...), v.R); err != nil {
			return nil, under("right", err)
		}
	case nil:
		return nil, fieldErrf("", "missing expression")
	default:
		return nil, fieldErrf("", "unsupported expression type %T", x)
	}
	return append(b, '}'), nil
}

func appendAgg(b []byte, a expr.AggSpec) ([]byte, error) {
	b = jsonx.AppendString(append(b, `{"agg":`...), a.Kind.String())
	if a.Arg != nil {
		var err error
		if b, err = appendExpr(append(b, `,"arg":`...), a.Arg); err != nil {
			return nil, under("arg", err)
		}
	} else if a.Kind != expr.Count {
		return nil, fieldErrf("arg", "aggregate %q requires an argument", a.Kind)
	}
	return append(jsonx.AppendString(append(b, `,"name":`...), a.Name), '}'), nil
}

func arithOpName(op expr.ArithOp) string {
	if int(op) < len(arithOps) {
		return arithOps[op]
	}
	return "/"
}
