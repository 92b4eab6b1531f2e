package index

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec/par"
	"repro/internal/storage"
)

// genBuild produces n row-major rows (key, tag) with keys drawn from a
// small domain so every key has a long row list: the order-sensitive
// case of a join's build side.
func genBuild(n, distinct int, seed int64) []storage.Word {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]storage.Word, 0, 2*n)
	for i := 0; i < n; i++ {
		flat = append(flat, storage.EncodeInt(rng.Int63n(int64(distinct))), storage.EncodeInt(int64(i)))
	}
	return flat
}

// newTestPool starts a pool of n workers that the test closes when it
// ends.
func newTestPool(t testing.TB, n int) *par.Pool {
	pool := par.NewPool(n)
	t.Cleanup(pool.Close)
	return pool
}

// assertBuildMatchesSerial checks that h, built by BuildHash over the
// row-major flat rows of width words keyed on column key, resolves every
// key to the same rows in the same order as a serial pass over the rows,
// reaches every row once and finds nothing under an absent key.
func assertBuildMatchesSerial(t *testing.T, label string, flat []storage.Word, h *HashIndex, key, width int) {
	t.Helper()
	rows := len(flat) / width
	want := map[storage.Word][]int{}
	for i := 0; i < rows; i++ {
		k := flat[i*width+key]
		want[k] = append(want[k], i)
	}
	seen := 0
	for k, wantIdx := range want {
		matches := h.Lookup(k, nil)
		if len(matches) != len(wantIdx) {
			t.Fatalf("%s: key %d has %d matches, want %d", label, k, len(matches), len(wantIdx))
		}
		for i, m := range matches {
			got := flat[int(m)*width : int(m+1)*width]
			exp := flat[wantIdx[i]*width : (wantIdx[i]+1)*width]
			for c := range exp {
				if got[c] != exp[c] {
					t.Fatalf("%s: key %d match %d = row %v, want %v (order broken)", label, k, i, got, exp)
				}
			}
		}
		seen += len(matches)
	}
	if seen != rows || h.Len() != rows {
		t.Fatalf("%s: %d rows reachable, Len = %d, want %d", label, seen, h.Len(), rows)
	}
	if m := h.Lookup(storage.EncodeInt(-12345), nil); len(m) != 0 {
		t.Fatalf("%s: absent key produced %d matches", label, len(m))
	}
}

// TestBuildHashMatchesSerial sweeps build sizes and worker counts; small
// morsels force many morsels so the scatter's morsel-order guarantee is
// exercised, not bypassed.
func TestBuildHashMatchesSerial(t *testing.T) {
	var pools []*par.Pool
	for _, workers := range []int{1, 2, 4, 8} {
		pools = append(pools, newTestPool(t, workers))
	}
	for _, n := range []int{0, 1, 100, minPartitionRows, 60_000} {
		flat := genBuild(n, 97, int64(n)+5)
		for _, pool := range pools {
			workers, opt := pool.Workers(), par.Options{Pool: pool, MorselRows: 2048}
			h := BuildHash(storage.Accessor{Data: flat, Stride: 2}, n, opt)
			bits := partitionBits(len(h.slots), n, opt)
			label := fmt.Sprintf("n=%d workers=%d parts=%d", n, workers, 1<<bits)
			if workers > 1 && n >= minPartitionRows && bits == 0 {
				t.Fatalf("%s: expected a partitioned build", label)
			}
			if workers == 1 && bits != 0 {
				t.Fatalf("%s: serial build must stay unpartitioned", label)
			}
			assertBuildMatchesSerial(t, label, flat, h, 0, 2)
		}
	}
}

// TestBuildHashOnPool builds 40,000 rows of 1,000 keys on a shared pool.
func TestBuildHashOnPool(t *testing.T) {
	flat := genBuild(40_000, 1000, 11)
	h := BuildHash(storage.Accessor{Data: flat, Stride: 2}, 40_000, par.Options{Pool: newTestPool(t, 4), MorselRows: 4096})
	assertBuildMatchesSerial(t, "pool", flat, h, 0, 2)
}

// TestBuildHashWideRowsNonZeroKey keys wider rows on a non-leading
// column.
func TestBuildHashWideRowsNonZeroKey(t *testing.T) {
	const rows, width = 20_000, 4
	rng := rand.New(rand.NewSource(2))
	flat := make([]storage.Word, 0, rows*width)
	for i := 0; i < rows; i++ {
		flat = append(flat,
			storage.EncodeInt(int64(i)),
			storage.EncodeInt(rng.Int63n(31)),
			storage.EncodeInt(rng.Int63()),
			storage.EncodeInt(int64(i%3)),
		)
	}
	h := BuildHash(storage.Accessor{Data: flat, Stride: width, Off: 1}, rows, par.Options{Pool: newTestPool(t, 4), MorselRows: 1024})
	assertBuildMatchesSerial(t, "wide", flat, h, 1, width)
}
