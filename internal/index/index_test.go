package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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
	idx := BuildOn(NewRBTree(), rel, 0)
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
