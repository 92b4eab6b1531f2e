package index

import (
	"fmt"
	mbits "math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/exec/par"
	"repro/internal/storage"
)

func sorted32(s []int32) []int32 {
	out := append([]int32(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceModel drives an index and a plain map with identical inserts and
// checks every lookup agrees.
func referenceModel(t *testing.T, mk func() Index, seed int64, ops int) {
	t.Helper()
	idx := mk()
	ref := map[storage.Word][]int32{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		key := storage.Word(rng.Intn(200))
		row := int32(i)
		idx.Insert(key, row)
		ref[key] = append(ref[key], row)
	}
	if idx.Len() != ops {
		t.Fatalf("%s: Len = %d, want %d", idx.Kind(), idx.Len(), ops)
	}
	for key := storage.Word(0); key < 220; key++ {
		got := sorted32(idx.Lookup(key, nil))
		want := sorted32(ref[key])
		if !equal32(got, want) {
			t.Fatalf("%s: lookup(%d) = %v, want %v", idx.Kind(), key, got, want)
		}
	}
}

func TestHashIndexAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		referenceModel(t, func() Index { return NewHashIndex(8) }, seed, 1000)
	}
}

func TestRBTreeAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		referenceModel(t, func() Index { return NewRBTree() }, seed, 1000)
	}
}

func TestHashIndexGrowth(t *testing.T) {
	h := NewHashIndex(2)
	for i := 0; i < 10000; i++ {
		h.Insert(storage.Word(i), int32(i))
	}
	for _, k := range []int{0, 1, 5000, 9999} {
		got := h.Lookup(storage.Word(k), nil)
		if len(got) != 1 || got[0] != int32(k) {
			t.Fatalf("lookup(%d) = %v after growth", k, got)
		}
	}
	if got := h.Lookup(123456, nil); len(got) != 0 {
		t.Errorf("lookup of absent key returned %v", got)
	}
}

func TestRBTreeInvariantsProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		tr := NewRBTree()
		for i, k := range keys {
			tr.Insert(storage.Word(k), int32(i))
			if tr.checkInvariants() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOn(t *testing.T) {
	schema := storage.NewSchema("r", storage.Attribute{Name: "k", Type: storage.Int64})
	b := storage.NewBuilder(schema)
	b.SetInts(0, []int64{5, 3, 5, 9})
	rel := b.Build(storage.NSM(1))
	idx := BuildOn(NewRBTree(), rel, 0, par.Serial())
	got := sorted32(idx.Lookup(storage.EncodeInt(5), nil))
	if !equal32(got, []int32{0, 2}) {
		t.Errorf("BuildOn lookup = %v, want [0 2]", got)
	}
}

// TestNewByKind pins the constructor that snapshot restore, WAL replay
// and relayout share: every kind an index reports constructs that index,
// anything else is an error.
func TestNewByKind(t *testing.T) {
	for _, kind := range []string{KindHash, KindRBTree} {
		idx, err := New(kind, 100)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if idx.Kind() != kind || idx.Len() != 0 {
			t.Fatalf("New(%q) = %s index with %d entries", kind, idx.Kind(), idx.Len())
		}
	}
	if idx, err := New("btree", 0); err == nil {
		t.Fatalf("New of an unknown kind returned %v", idx)
	}
}

// checkInvariants validates the red-black properties; it returns the black
// height or -1 on violation.
func (t *RBTree) checkInvariants() int {
	if t.root == nil {
		return 0
	}
	if t.root.color != rbBlack {
		return -1
	}
	var check func(n *rbNode, min, max storage.Word, hasMin, hasMax bool) int
	check = func(n *rbNode, min, max storage.Word, hasMin, hasMax bool) int {
		if n == nil {
			return 1
		}
		if hasMin && n.key <= min {
			return -1
		}
		if hasMax && n.key >= max {
			return -1
		}
		if n.color == rbRed {
			if (n.left != nil && n.left.color == rbRed) || (n.right != nil && n.right.color == rbRed) {
				return -1
			}
		}
		lh := check(n.left, min, n.key, hasMin, true)
		rh := check(n.right, n.key, max, true, hasMax)
		if lh < 0 || rh < 0 || lh != rh {
			return -1
		}
		if n.color == rbBlack {
			return lh + 1
		}
		return lh
	}
	return check(t.root, 0, 0, false, false)
}

// keyRelation is a one-column relation of the given keys.
func keyRelation(keys []int64) *storage.Relation {
	schema := storage.NewSchema("r", storage.Attribute{Name: "k", Type: storage.Int64})
	return storage.NewBuilder(schema).SetInts(0, keys).Build(storage.NSM(1))
}

// lookupAll returns Lookup of every key of domain.
func lookupAll(idx Index, domain []int64) [][]int32 {
	out := make([][]int32, len(domain))
	for k, key := range domain {
		out[k] = idx.Lookup(storage.EncodeInt(key), nil)
	}
	return out
}

// keyDomain returns n distinct keys for a hash index built over rows
// rows. When n > 1 the first two are negative and have the last slot as
// their home, so a build's probe for the second runs past every
// partition's range and wraps; the rest count up from 0.
func keyDomain(rows, n int) []int64 {
	h := NewHashIndex(rows)
	var domain []int64
	for v := int64(-1); n > 1 && len(domain) < 2; v-- {
		if hashWord(storage.EncodeInt(v))&h.mask == h.mask {
			domain = append(domain, v)
		}
	}
	for v := int64(0); len(domain) < n; v++ {
		domain = append(domain, v)
	}
	return domain
}

// TestHashBuildLookupOrder: a hash index built serially or on morsel
// workers returns every key's rows in ascending order, also after a clone
// grows under inserts, and inserts into the clone never show in its
// source. Keys repeat heavily, two keys' probe runs cross partition
// ranges, and the morsel sizes are not multiples of a block. 50,000 rows
// of one key build and take inserts in well under a second: a key's rows
// share one slot.
func TestHashBuildLookupOrder(t *testing.T) {
	var opts []par.Options
	for _, o := range []struct{ workers, morsel int }{{2, 1000}, {4, 4097}, {2, 333}} {
		pool := par.NewPool(o.workers)
		t.Cleanup(pool.Close)
		opts = append(opts, par.Options{Pool: pool, MorselRows: o.morsel})
	}
	for _, tc := range []struct{ rows, keys int }{{20_000, 300}, {40_001, 10_000}, {17_000, 100}, {50_000, 1}} {
		start := time.Now()
		rng := rand.New(rand.NewSource(int64(tc.rows)))
		domain := keyDomain(tc.rows, tc.keys)
		keys := make([]int, tc.rows)
		for i := range keys {
			keys[i] = rng.Intn(tc.keys)
		}
		copy(keys, []int{0, 1}[:min(tc.keys, 2)]) // both wrapping keys occur
		rel := keyRelation(keyValues(domain, keys))
		want := make([][]int32, tc.keys)
		for row, k := range keys {
			want[k] = append(want[k], int32(row))
		}
		if got := lookupAll(BuildOn(NewHashIndex(tc.rows), rel, 0, par.Serial()), domain); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("rows=%d: a serial build does not return every key's rows in ascending order", tc.rows)
		}
		for i, opt := range opts {
			idx := BuildOn(NewHashIndex(tc.rows), rel, 0, opt)
			if idx.Len() != tc.rows {
				t.Fatalf("rows=%d %+v: Len = %d", tc.rows, opt, idx.Len())
			}
			if tc.keys > 1 && !crossesPartition(idx.(*HashIndex), tc.rows, opt) {
				t.Fatalf("rows=%d %+v: no probe run left its partition; the deferred path went untested", tc.rows, opt)
			}
			got := lookupAll(idx, domain)
			for k := range want {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("rows=%d %+v: Lookup(%d) = %d rows, want %d rows in ascending order", tc.rows, opt, domain[k], len(got[k]), len(want[k]))
				}
			}
			if i > 0 {
				continue
			}
			// A clone that grows keeps every key's rows ascending, old
			// rows first. Every other insert is a new key, so it grows.
			clone := idx.Clone().(*HashIndex)
			for size, row := len(clone.slots), tc.rows; len(clone.slots) == size; row++ {
				key := domain[row%tc.keys]
				if row%2 == 1 {
					key = int64(row)
				}
				clone.Insert(storage.EncodeInt(key), int32(row))
			}
			for k, rows := range lookupAll(clone, domain) {
				if !slices.IsSorted(rows) || !slices.Equal(rows[:len(want[k])], want[k]) {
					t.Fatalf("rows=%d %+v: after grow Lookup(%d) is out of order", tc.rows, opt, domain[k])
				}
			}
			if got := lookupAll(idx, domain); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("rows=%d %+v: inserts into the clone changed the original", tc.rows, opt)
			}
		}
		if d := time.Since(start); tc.keys == 1 && d > time.Second {
			t.Fatalf("%d rows of one key took %v to build, look up and insert into", tc.rows, d)
		}
	}
}

// keyValues maps each row's key index into domain.
func keyValues(domain []int64, keys []int) []int64 {
	out := make([]int64, len(keys))
	for i, k := range keys {
		out[i] = domain[k]
	}
	return out
}

// crossesPartition reports whether some entry of h, built from rows
// under opt, sits outside the slot range of its home slot's partition:
// a row that build deferred.
func crossesPartition(h *HashIndex, rows int, opt par.Options) bool {
	shift := uint(mbits.Len64(h.mask)) - uint(partitionBits(len(h.slots), rows, opt))
	for pos, s := range h.slots {
		if s.used && uint64(pos)>>shift != (hashWord(s.key)&h.mask)>>shift {
			return true
		}
	}
	return false
}

// TestHashGrowKeepsWrappedRunsInOrder: keys whose probe run wraps past
// the end of the slot array keep their rows, in insertion order, through
// a grow.
func TestHashGrowKeepsWrappedRunsInOrder(t *testing.T) {
	h := NewHashIndex(8)
	var keys []storage.Word
	for key := storage.Word(0); len(keys) < 12; key++ {
		if hashWord(key)&h.mask == h.mask { // home slot is the last one
			keys = append(keys, key)
		}
	}
	for row := int32(0); row < 36; row++ {
		h.Insert(keys[row%12], row)
	}
	if len(h.slots) == 16 {
		t.Fatal("12 keys did not grow a 16-slot index")
	}
	for i, key := range keys {
		if got, want := h.Lookup(key, nil), []int32{int32(i), int32(i + 12), int32(i + 24)}; !slices.Equal(got, want) {
			t.Fatalf("Lookup after grow = %v, want %v", got, want)
		}
	}
}

// BenchmarkHashIndexBuild times BuildOn of a hash index over 2M rows of
// a row-store relation of 12 words a row (the served orders table's
// shape), serial and on two morsel workers. unique keys every row apart,
// as the served orders' ids are; keys=1000 spreads the rows over 1,000
// keys, so all but 1,000 rows join a key's row list.
func BenchmarkHashIndexBuild(b *testing.B) {
	const rows, width = 2_000_000, 12
	attrs := make([]storage.Attribute, width)
	for i := range attrs {
		attrs[i] = storage.Attribute{Name: fmt.Sprintf("a%d", i), Type: storage.Int64}
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		key  func(row, id int) int
	}{
		{"unique", func(_, id int) int { return id }},
		{"keys=1000", func(int, int) int { return rng.Intn(1000) }},
	} {
		rel := storage.NewRelation(storage.NewSchema("orders", attrs...), storage.NSM(width))
		words := make([]storage.Word, rows*width)
		for i, id := range rng.Perm(rows) {
			words[i*width] = storage.EncodeInt(int64(c.key(i, id)))
		}
		rel.AppendRows(words)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				pool := par.NewPool(workers)
				defer pool.Close()
				opt := par.WithPool(pool)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BuildOn(NewHashIndex(rows), rel, 0, opt)
				}
			})
		}
	}
}
