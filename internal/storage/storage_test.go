package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/exec/par"
)

func TestEncodeIntOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		return (a < b) == (EncodeInt(a) < EncodeInt(b)) && DecodeInt(EncodeInt(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFloatOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if DecodeFloat(EncodeFloat(a)) != a {
			return false
		}
		if a < b && EncodeFloat(a) >= EncodeFloat(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Spot checks across sign and zero.
	vals := []float64{math.Inf(-1), -1e300, -1.5, -0.0, 0.0, 1e-300, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] < vals[i] && EncodeFloat(vals[i-1]) >= EncodeFloat(vals[i]) {
			t.Errorf("order violated between %v and %v", vals[i-1], vals[i])
		}
	}
}

func TestEncodeBoolRoundTrip(t *testing.T) {
	if DecodeBool(EncodeBool(true)) != true || DecodeBool(EncodeBool(false)) != false {
		t.Fatal("bool round trip failed")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema("r", Attribute{"a", Int64}, Attribute{"b", String})
	if s.Width() != 2 || s.Col("b") != 1 || s.AttrIndex("zzz") != -1 {
		t.Fatal("schema lookup broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("Col on unknown attribute must panic")
		}
	}()
	s.Col("nope")
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute must panic")
		}
	}()
	NewSchema("r", Attribute{"a", Int64}, Attribute{"a", Int64})
}

func TestDictOrderPreserving(t *testing.T) {
	f := func(vals []string) bool {
		if len(vals) == 0 {
			return true
		}
		d := BuildDict(vals)
		for i := 0; i < len(vals); i++ {
			for j := 0; j < len(vals); j++ {
				ci, _ := d.Code(vals[i])
				cj, _ := d.Code(vals[j])
				if (vals[i] < vals[j]) != (ci < cj) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDictAppendCode(t *testing.T) {
	d := BuildDict([]string{"b", "a"})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	c := d.AppendCode("zzz")
	if c != 2 {
		t.Errorf("fresh code = %d, want 2", c)
	}
	if d.AppendCode("zzz") != c || d.AppendCode("a") != 0 {
		t.Error("AppendCode must be idempotent and reuse existing codes")
	}
	if d.Value(c) != "zzz" {
		t.Error("Value of appended code wrong")
	}
}

func TestCodeSetLike(t *testing.T) {
	d := BuildDict([]string{"apple", "apricot", "banana", "grape"})
	cs := d.MatchCodes(func(s string) bool { return strings.HasPrefix(s, "ap") })
	if cs.Count() != 2 {
		t.Fatalf("Count = %d, want 2", cs.Count())
	}
	for _, v := range []string{"apple", "apricot"} {
		if c, _ := d.Code(v); !cs.Contains(c) {
			t.Errorf("%q should match", v)
		}
	}
	for _, v := range []string{"banana", "grape"} {
		if c, _ := d.Code(v); cs.Contains(c) {
			t.Errorf("%q should not match", v)
		}
	}
	if cs.Contains(Null) {
		t.Error("Null must never be contained")
	}
}

func TestLayoutConstructorsAndValidate(t *testing.T) {
	if err := NSM(5).Validate(5); err != nil {
		t.Error(err)
	}
	if err := DSM(5).Validate(5); err != nil {
		t.Error(err)
	}
	if NSM(3).Kind() != "row" || DSM(3).Kind() != "column" {
		t.Error("kind classification wrong")
	}
	h := PDSM([]int{0, 2}, []int{1})
	if h.Kind() != "hybrid" {
		t.Error("PDSM should classify as hybrid")
	}
	bad := []Layout{
		PDSM([]int{0}, []int{0, 1}), // duplicate
		PDSM([]int{0}),              // missing 1
		PDSM([]int{0}, []int{5}),    // out of range
		PDSM([]int{0, 1}, []int{}),  // empty group
	}
	for i, l := range bad {
		if err := l.Validate(2); err == nil {
			t.Errorf("bad layout %d validated", i)
		}
	}
}

func TestLayoutCanonicalEqual(t *testing.T) {
	a := PDSM([]int{2, 0}, []int{1})
	b := PDSM([]int{1}, []int{0, 2})
	if !a.Equal(b) {
		t.Error("layouts with same groups must be Equal")
	}
	if a.Equal(PDSM([]int{0}, []int{1, 2})) {
		t.Error("different groupings must not be Equal")
	}
	if got := a.Canonical().String(); got != "{{0,2},{1}}" {
		t.Errorf("canonical = %s", got)
	}
}

// TestLayoutValidateProperty: every random partitioning built by shuffling
// and splitting must validate; dropping one attribute must not.
func TestLayoutValidateProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		var groups [][]int
		for len(perm) > 0 {
			k := rng.Intn(len(perm)) + 1
			groups = append(groups, perm[:k])
			perm = perm[k:]
		}
		l := Layout{Groups: groups}
		if l.Validate(n) != nil {
			return false
		}
		// Remove last attribute of the last group -> must fail.
		last := groups[len(groups)-1]
		if len(last) == 1 {
			groups = groups[:len(groups)-1]
		} else {
			groups[len(groups)-1] = last[:len(last)-1]
		}
		if len(groups) == 0 {
			return true
		}
		return (Layout{Groups: groups}).Validate(n) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func buildTestRelation(t *testing.T, layout Layout) *Relation {
	t.Helper()
	schema := NewSchema("r",
		Attribute{"id", Int64},
		Attribute{"name", String},
		Attribute{"price", Float64},
		Attribute{"flag", Bool},
	)
	b := NewBuilder(schema)
	b.SetInts(0, []int64{1, 2, 3, -4})
	b.SetStrings(1, []string{"delta", "alpha", "charlie", "bravo"})
	b.SetWords(2, []Word{EncodeFloat(1.5), EncodeFloat(-2.5), EncodeFloat(0), EncodeFloat(99)})
	b.SetWords(3, []Word{1, 0, 1, 0})
	return b.Build(layout)
}

func TestRelationRoundTripAllLayouts(t *testing.T) {
	layouts := map[string]Layout{
		"row":    NSM(4),
		"column": DSM(4),
		"hybrid": PDSM([]int{0, 2}, []int{1, 3}),
	}
	for name, l := range layouts {
		r := buildTestRelation(t, l)
		if r.Rows() != 4 {
			t.Fatalf("%s: rows = %d", name, r.Rows())
		}
		if DecodeInt(r.Value(3, 0)) != -4 {
			t.Errorf("%s: int round trip failed", name)
		}
		if r.StringOf(1, 1) != "alpha" {
			t.Errorf("%s: string round trip failed: %q", name, r.StringOf(1, 1))
		}
		if DecodeFloat(r.Value(1, 2)) != -2.5 {
			t.Errorf("%s: float round trip failed", name)
		}
		if !DecodeBool(r.Value(2, 3)) || DecodeBool(r.Value(3, 3)) {
			t.Errorf("%s: bool round trip failed", name)
		}
	}
}

func TestRelationAccessorMatchesValue(t *testing.T) {
	r := buildTestRelation(t, PDSM([]int{1, 0}, []int{3, 2}))
	for attr := 0; attr < 4; attr++ {
		acc := r.Access(attr)
		for row := 0; row < r.Rows(); row++ {
			if acc.At(row) != r.Value(row, attr) {
				t.Fatalf("accessor mismatch at row %d attr %d", row, attr)
			}
		}
	}
}

func TestRelationWithLayoutPreservesContent(t *testing.T) {
	src := buildTestRelation(t, NSM(4))
	for _, l := range []Layout{DSM(4), PDSM([]int{0, 1}, []int{2, 3}), PDSM([]int{3}, []int{2, 1, 0})} {
		dst := src.WithLayout(l, par.Serial())
		if dst.Rows() != src.Rows() {
			t.Fatal("row count changed")
		}
		for row := 0; row < src.Rows(); row++ {
			for attr := 0; attr < 4; attr++ {
				if src.Value(row, attr) != dst.Value(row, attr) {
					t.Fatalf("layout %v: cell (%d,%d) differs", l, row, attr)
				}
			}
		}
		if dst.StringOf(0, 1) != src.StringOf(0, 1) {
			t.Error("dictionaries must be shared across layout siblings")
		}
	}
}

func TestRelationAppendRow(t *testing.T) {
	r := buildTestRelation(t, PDSM([]int{0, 2}, []int{1, 3}))
	nameCode := r.Dict(1).AppendCode("echo")
	row := r.AppendRows([]Word{EncodeInt(5), nameCode, EncodeFloat(7.25), 1})
	if row != 4 || r.Rows() != 5 {
		t.Fatal("append did not extend the relation")
	}
	if DecodeInt(r.Value(4, 0)) != 5 || r.StringOf(4, 1) != "echo" || DecodeFloat(r.Value(4, 2)) != 7.25 {
		t.Error("appended values wrong")
	}
}

// wideRows returns n rows of a 6-attribute schema, row-major, every word
// distinct.
func wideRows(n int) (*Schema, []Word) {
	schema := NewSchema("w", Attribute{"a", Int64}, Attribute{"b", Int64}, Attribute{"c", Int64},
		Attribute{"d", Int64}, Attribute{"e", Int64}, Attribute{"f", Int64})
	words := make([]Word, 6*n)
	for i := range words {
		words[i] = EncodeInt(int64(i*7919 - 3))
	}
	return schema, words
}

// partWords copies every partition's words.
func partWords(r *Relation) [][]Word {
	out := make([][]Word, len(r.Parts))
	for i, p := range r.Parts {
		out[i] = append([]Word(nil), p.Data...)
	}
	return out
}

func TestAppendRowsMatchesRowAtATime(t *testing.T) {
	schema, words := wideRows(777)
	for name, l := range map[string]Layout{
		"row":    NSM(6),
		"column": DSM(6),
		"hybrid": PDSM([]int{4, 0}, []int{1}, []int{5, 3, 2}),
	} {
		one := NewRelation(schema, l)
		for row := 0; row < 777; row++ {
			if id := one.AppendRows(words[row*6 : row*6+6]); id != row {
				t.Fatalf("%s: one-row append %d returned row id %d", name, row, id)
			}
		}
		batched := NewRelation(schema, l)
		for _, cut := range [][2]int{{0, 1}, {1, 300}, {300, 301}, {301, 777}} {
			if id := batched.AppendRows(words[cut[0]*6 : cut[1]*6]); id != cut[0] {
				t.Fatalf("%s: batch at row %d returned row id %d", name, cut[0], id)
			}
		}
		if batched.Rows() != 777 || !reflect.DeepEqual(partWords(batched), partWords(one)) {
			t.Fatalf("%s: batched appends differ from row-at-a-time appends", name)
		}
		for row := 0; row < 777; row++ {
			for attr := 0; attr < 6; attr++ {
				if batched.Value(row, attr) != words[row*6+attr] {
					t.Fatalf("%s: row %d attr %d reads %x, want %x", name, row, attr, batched.Value(row, attr), words[row*6+attr])
				}
			}
		}
		batched.Clip(par.Serial())
		for _, p := range batched.Parts {
			if cap(p.Data) != len(p.Data) {
				t.Fatalf("%s: clipped partition has capacity %d for %d words", name, cap(p.Data), len(p.Data))
			}
		}
		if !reflect.DeepEqual(partWords(batched), partWords(one)) {
			t.Fatalf("%s: Clip changed the words", name)
		}
	}
}

// TestAppendRowsKeepsOlderHeaders appends to a clone of a relation, once
// within its capacity and once past it, and checks the original still
// reads its own rows: AppendRows never writes below a length an older
// slice header bounds.
func TestAppendRowsKeepsOlderHeaders(t *testing.T) {
	schema, words := wideRows(300)
	r := NewRelation(schema, NSM(6))
	for _, cut := range [][2]int{{0, 50}, {50, 100}, {100, 101}} {
		r.AppendRows(words[cut[0]*6 : cut[1]*6])
	}
	if p := r.Parts[0]; cap(p.Data) < len(p.Data)+6 {
		t.Fatalf("no spare capacity after doubling: %d words in %d", len(p.Data), cap(p.Data))
	}
	want := partWords(r)
	grown := r.CloneForWrite()
	grown.AppendRows(words[101*6 : 102*6]) // within capacity
	grown.AppendRows(words[102*6:])        // past it
	if r.Rows() != 101 || !reflect.DeepEqual(partWords(r), want) {
		t.Fatal("appending to a clone changed the original's rows")
	}
	if grown.Rows() != 300 || !reflect.DeepEqual(grown.Parts[0].Data, words) {
		t.Fatal("the clone does not hold every appended row")
	}
}

// TestWithLayoutRoundTrip moves a relation of more than two relayout
// blocks through DSM and a hybrid layout back to NSM; the result must
// equal the source word for word.
func TestWithLayoutRoundTrip(t *testing.T) {
	rows := 2*relayoutBlock + 37
	schema, words := wideRows(rows)
	src := NewRelation(schema, NSM(6))
	src.AppendRows(words)
	hybrid := PDSM([]int{5, 1}, []int{0}, []int{2, 4, 3})
	back := src.WithLayout(DSM(6), par.Serial()).WithLayout(hybrid, par.Serial()).WithLayout(NSM(6), par.Serial())
	if back.Rows() != rows || !reflect.DeepEqual(back.Parts[0].Data, src.Parts[0].Data) {
		t.Fatal("NSM -> DSM -> hybrid -> NSM changed the words")
	}
}

// morselOptions are parallel options whose morsels are not multiples
// of a relayout block, so blocks end early at morsel boundaries. Their
// pools close when the test ends.
func morselOptions(t testing.TB) []par.Options {
	opts := []par.Options{{MorselRows: 1000}, {MorselRows: relayoutBlock + 1}, {MorselRows: 7}}
	for i := range opts {
		opts[i].Pool = newTestPool(t, i+2)
	}
	return opts
}

// newTestPool starts a pool of n workers that the test closes when it
// ends.
func newTestPool(t testing.TB, n int) *par.Pool {
	pool := par.NewPool(n)
	t.Cleanup(pool.Close)
	return pool
}

// TestWithLayoutMorselsMatchSerial: WithLayout on morsel workers writes
// the same words as on one.
func TestWithLayoutMorselsMatchSerial(t *testing.T) {
	rows := 3*relayoutBlock + 11
	schema, words := wideRows(rows)
	src := NewRelation(schema, NSM(6))
	src.AppendRows(words)
	for _, l := range []Layout{DSM(6), PDSM([]int{5, 1}, []int{0}, []int{2, 4, 3}), NSM(6)} {
		want := partWords(src.WithLayout(l, par.Serial()))
		for _, opt := range morselOptions(t) {
			if got := partWords(src.WithLayout(l, opt)); !reflect.DeepEqual(got, want) {
				t.Fatalf("layout %v %+v: words differ from a serial relayout", l, opt)
			}
		}
	}
}

// TestClipMorselsMatchSerial: Clip on morsel workers leaves exactly the
// words it found, with no spare capacity, and leaves the old arrays to
// older versions.
func TestClipMorselsMatchSerial(t *testing.T) {
	schema, words := wideRows(2*relayoutBlock + 5)
	for _, opt := range morselOptions(t) {
		r := NewRelation(schema, PDSM([]int{4, 0}, []int{1}, []int{5, 3, 2}))
		r.AppendRows(words[:6])
		r.AppendRows(words[6:])
		want, old := partWords(r), r.CloneForWrite()
		r.Clip(opt)
		for _, p := range r.Parts {
			if cap(p.Data) != len(p.Data) {
				t.Fatalf("%+v: clipped partition has capacity %d for %d words", opt, cap(p.Data), len(p.Data))
			}
		}
		if !reflect.DeepEqual(partWords(r), want) || !reflect.DeepEqual(partWords(old), want) {
			t.Fatalf("%+v: Clip changed the words", opt)
		}
	}
}

// benchRelation is a 2M-row, 12-attribute row store, the served orders
// table's shape.
func benchRelation() *Relation {
	const rows, width = 2_000_000, 12
	attrs := make([]Attribute, width)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Type: Int64}
	}
	r := NewRelation(NewSchema("orders", attrs...), NSM(width))
	words := make([]Word, rows*width)
	for i := range words {
		words[i] = Word(i)
	}
	r.AppendRows(words)
	return r
}

// BenchmarkWithLayout times moving a 2M x 12 row store into a
// three-partition hybrid layout, serially and on two morsel workers.
func BenchmarkWithLayout(b *testing.B) {
	r := benchRelation()
	hybrid := PDSM([]int{0}, []int{1, 2, 3, 4, 5, 6, 7}, []int{8, 9, 10, 11})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := par.WithPool(newTestPool(b, workers))
			for i := 0; i < b.N; i++ {
				r.WithLayout(hybrid, opt)
			}
		})
	}
}

// BenchmarkClip times clipping the spare capacity of a 2M x 12 row
// store, serially and on two morsel workers.
func BenchmarkClip(b *testing.B) {
	r := benchRelation()
	data := slices.Grow(r.Parts[0].Data, 1) // spare capacity for Clip to drop
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := par.WithPool(newTestPool(b, workers))
			for i := 0; i < b.N; i++ {
				r.Parts[0].Data = data
				r.Clip(opt)
			}
		})
	}
}

func TestBuilderUnsetColumnIsNull(t *testing.T) {
	schema := NewSchema("r", Attribute{"a", Int64}, Attribute{"b", Int64})
	b := NewBuilder(schema)
	b.SetInts(0, []int64{1, 2})
	r := b.Build(NSM(2))
	if r.Value(0, 1) != Null || r.Value(1, 1) != Null {
		t.Error("unset column must be NULL")
	}
}

func TestBuilderStringsWithNulls(t *testing.T) {
	schema := NewSchema("r", Attribute{"s", String})
	b := NewBuilder(schema)
	b.SetStrings(0, []string{"x", "y"})
	r := b.Build(DSM(1))
	r.AppendRows([]Word{Null})
	if r.Value(2, 0) != Null {
		t.Error("null cell must store Null word")
	}
	if r.StringOf(0, 0) != "x" || r.StringOf(1, 0) != "y" {
		t.Error("non-null strings wrong")
	}
	if r.StringOf(2, 0) != "" {
		t.Error("StringOf(null) must return empty string")
	}
	if r.Dict(0).Len() != 2 {
		t.Errorf("dict must exclude nulls, len = %d", r.Dict(0).Len())
	}
}

func TestBuilderMismatchedLengthPanics(t *testing.T) {
	schema := NewSchema("r", Attribute{"a", Int64}, Attribute{"b", Int64})
	b := NewBuilder(schema)
	b.SetInts(0, []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("mismatched column length must panic")
		}
	}()
	b.SetInts(1, []int64{1})
}

// TestRelationRandomizedLayoutEquivalence: for random data and random
// partitionings, every cell is identical between the NSM master and the
// repartitioned sibling.
func TestRelationRandomizedLayoutEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		attrs := make([]Attribute, n)
		for i := range attrs {
			attrs[i] = Attribute{Name: string(rune('a' + i)), Type: Int64}
		}
		schema := NewSchema("t", attrs...)
		b := NewBuilder(schema)
		rows := rng.Intn(200) + 1
		for a := 0; a < n; a++ {
			col := make([]int64, rows)
			for i := range col {
				col[i] = rng.Int63n(1000) - 500
			}
			b.SetInts(a, col)
		}
		master := b.Build(NSM(n))
		perm := rng.Perm(n)
		var groups [][]int
		for len(perm) > 0 {
			k := rng.Intn(len(perm)) + 1
			g := append([]int(nil), perm[:k]...)
			sort.Ints(g)
			groups = append(groups, g)
			perm = perm[k:]
		}
		sib := master.WithLayout(Layout{Groups: groups}, par.Serial())
		for row := 0; row < rows; row++ {
			for a := 0; a < n; a++ {
				if master.Value(row, a) != sib.Value(row, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionGeometry(t *testing.T) {
	r := buildTestRelation(t, PDSM([]int{0, 2}, []int{1, 3}))
	p := r.Parts[r.groupOf[2]]
	if p.Stride != 2 || len(p.Data) != 2*4 {
		t.Errorf("partition geometry wrong: stride=%d words=%d", p.Stride, len(p.Data))
	}
}

func TestCodeSetCodesRoundTrip(t *testing.T) {
	// Sparse membership over a large space: Codes must enumerate exactly
	// the members, ascending, without walking every code.
	members := []Word{0, 63, 64, 1000, 65535}
	cs := NewCodeSet(members, 65536)
	got := cs.Codes()
	if len(got) != len(members) {
		t.Fatalf("Codes() = %v, want %v", got, members)
	}
	for i, c := range members {
		if got[i] != c {
			t.Fatalf("Codes()[%d] = %d, want %d", i, got[i], c)
		}
	}
	if cs.Count() != len(members) || cs.Size() != 65536 {
		t.Fatalf("Count=%d Size=%d", cs.Count(), cs.Size())
	}
	for _, c := range members {
		if !cs.Contains(c) {
			t.Fatalf("Contains(%d) = false", c)
		}
	}
	if cs.Contains(1) || cs.Contains(70000) {
		t.Fatal("Contains accepted a non-member")
	}
}
