package sortpar

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/exec/par"
	"repro/internal/plan"
	"repro/internal/storage"
)

// genRows builds n rows of (key₀ % c₀, key₁ % c₁, id) — the id column is a
// unique witness that exposes any reordering of equal-key rows.
func genRows(n int, seed int64) [][]storage.Word {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]storage.Word, n)
	for i := range rows {
		rows[i] = []storage.Word{
			storage.EncodeInt(rng.Int63n(7)),  // heavy duplicates
			storage.EncodeInt(rng.Int63n(50)), // moderate duplicates
			storage.EncodeInt(int64(i)),       // unique id
		}
	}
	return rows
}

func cloneRows(rows [][]storage.Word) [][]storage.Word {
	out := make([][]storage.Word, len(rows))
	for i, r := range rows {
		out[i] = append([]storage.Word(nil), r...)
	}
	return out
}

func rowsEqual(a, b [][]storage.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

var keySweeps = [][]plan.SortKey{
	nil, // empty keys: stable sort must preserve input order
	{{Pos: 0}},
	{{Pos: 0, Desc: true}},
	{{Pos: 0}, {Pos: 1, Desc: true}},
	{{Pos: 1, Desc: true}, {Pos: 0}},
}

// newTestPool starts a pool of n workers that the test closes when it
// ends.
func newTestPool(t testing.TB, n int) *par.Pool {
	pool := par.NewPool(n)
	t.Cleanup(pool.Close)
	return pool
}

// TestSortMatchesSliceStable differentially checks Sort against
// sort.SliceStable on duplicate-heavy data: the unique id column makes any
// tie reordering visible.
func TestSortMatchesSliceStable(t *testing.T) {
	var pools []*par.Pool
	for _, workers := range []int{1, 2, 3, 4, 8} {
		pools = append(pools, newTestPool(t, workers))
	}
	for _, n := range []int{0, 1, 2, 5, 100, minParallelRows, 50_000} {
		rows := genRows(n, int64(n)+1)
		for ki, keys := range keySweeps {
			want := cloneRows(rows)
			sort.SliceStable(want, func(i, j int) bool { return Less(want[i], want[j], keys) })
			for _, pool := range pools {
				workers, got := pool.Workers(), cloneRows(rows)
				Sort(got, keys, par.WithPool(pool))
				if !rowsEqual(want, got) {
					t.Fatalf("n=%d keys=%d workers=%d: parallel sort diverges from SliceStable", n, ki, workers)
				}
			}
		}
	}
}

// TestSortOnPool runs the parallel sort on a shared pool, the way the
// service executes it.
func TestSortOnPool(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	rows := genRows(30_000, 99)
	keys := []plan.SortKey{{Pos: 0}, {Pos: 1}}
	want := cloneRows(rows)
	sort.SliceStable(want, func(i, j int) bool { return Less(want[i], want[j], keys) })
	got := cloneRows(rows)
	Sort(got, keys, par.WithPool(pool))
	if !rowsEqual(want, got) {
		t.Fatal("pool-backed sort diverges from SliceStable")
	}
}

// TestTopNMatchesSortTruncate: for every k, the bounded heap must yield
// exactly the first k rows of the full stable sort — ties at the k
// boundary included.
func TestTopNMatchesSortTruncate(t *testing.T) {
	rows := genRows(5000, 7)
	for _, keys := range keySweeps {
		want := cloneRows(rows)
		sort.SliceStable(want, func(i, j int) bool { return Less(want[i], want[j], keys) })
		for _, k := range []int{0, 1, 2, 10, 100, 4999, 5000, 9000} {
			tn := NewTopN(keys, k)
			for i, r := range rows {
				tn.Offer(r, 0, i)
			}
			got := MergeTopN([]*TopN{tn}, keys, k)
			wk := want
			if len(wk) > k {
				wk = wk[:k]
			}
			if !rowsEqual(wk, got) {
				t.Fatalf("k=%d keys=%v: top-N diverges from sort+truncate (%d vs %d rows)", k, keys, len(got), len(wk))
			}
		}
	}
}

// TestTopNPartitionedMerge splits the input across simulated workers by
// morsel and checks the merged candidates equal the serial top k.
func TestTopNPartitionedMerge(t *testing.T) {
	rows := genRows(20_000, 3)
	keys := []plan.SortKey{{Pos: 0}, {Pos: 1, Desc: true}}
	const k, morselRows = 37, 512
	want := cloneRows(rows)
	sort.SliceStable(want, func(i, j int) bool { return Less(want[i], want[j], keys) })
	for _, workers := range []int{2, 3, 8} {
		parts := make([]*TopN, workers)
		for m := 0; m*morselRows < len(rows); m++ {
			w := (m * 2654435761) % workers // arbitrary morsel→worker assignment
			if parts[w] == nil {
				parts[w] = NewTopN(keys, k)
			}
			lo, hi := m*morselRows, (m+1)*morselRows
			if hi > len(rows) {
				hi = len(rows)
			}
			for i := lo; i < hi; i++ {
				parts[w].Offer(rows[i], m, i-lo)
			}
		}
		got := MergeTopN(parts, keys, k)
		if !rowsEqual(want[:k], got) {
			t.Fatalf("workers=%d: partitioned top-N diverges from serial top k", workers)
		}
	}
}

// TestTopNOfferDoesNotAliasInput: offered rows may be reused by the
// caller (register files, batch buffers); retained candidates must be
// copies.
func TestTopNOfferDoesNotAliasInput(t *testing.T) {
	keys := []plan.SortKey{{Pos: 0}}
	tn := NewTopN(keys, 2)
	buf := []storage.Word{storage.EncodeInt(5)}
	tn.Offer(buf, 0, 0)
	buf[0] = storage.EncodeInt(1)
	tn.Offer(buf, 0, 1)
	buf[0] = storage.EncodeInt(99)
	got := MergeTopN([]*TopN{tn}, keys, 2)
	if storage.DecodeInt(got[0][0]) != 1 || storage.DecodeInt(got[1][0]) != 5 {
		t.Fatalf("retained rows alias the caller's buffer: %v", got)
	}
}

func BenchmarkSort(b *testing.B) {
	rows := genRows(1_000_000, 1)
	keys := []plan.SortKey{{Pos: 0}, {Pos: 1}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := par.WithPool(newTestPool(b, workers))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := cloneRows(rows)
				b.StartTimer()
				Sort(in, keys, opt)
			}
		})
	}
}
