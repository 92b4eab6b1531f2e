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

func TestRBTreeRange(t *testing.T) {
	tr := NewRBTree()
	for i := 0; i < 100; i++ {
		tr.Insert(storage.Word(i*2), int32(i)) // even keys 0..198
	}
	var keys []storage.Word
	tr.Range(10, 20, func(k storage.Word, rows []int32) bool {
		keys = append(keys, k)
		return true
	})
	want := []storage.Word{10, 12, 14, 16, 18, 20}
	if len(keys) != len(want) {
		t.Fatalf("range keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("range keys = %v, want %v (ascending)", keys, want)
		}
	}
	// Early stop.
	count := 0
	tr.Range(0, 198, func(storage.Word, []int32) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d keys, want 3", count)
	}
}

func TestRBTreeRangeProperty(t *testing.T) {
	f := func(keys []uint8, loRaw, hiRaw uint8) bool {
		lo, hi := storage.Word(loRaw), storage.Word(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := NewRBTree()
		inRange := map[storage.Word]bool{}
		for i, k := range keys {
			tr.Insert(storage.Word(k), int32(i))
			if storage.Word(k) >= lo && storage.Word(k) <= hi {
				inRange[storage.Word(k)] = true
			}
		}
		seen := map[storage.Word]bool{}
		prev := storage.Word(0)
		first := true
		ok := true
		tr.Range(lo, hi, func(k storage.Word, rows []int32) bool {
			if k < lo || k > hi || len(rows) == 0 {
				ok = false
			}
			if !first && k <= prev {
				ok = false
			}
			prev, first = k, false
			seen[k] = true
			return true
		})
		return ok && len(seen) == len(inRange)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
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
