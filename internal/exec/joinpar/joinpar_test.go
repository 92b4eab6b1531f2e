package joinpar

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec/par"
	"repro/internal/storage"
)

// genBuild produces n rows (key, tag) with keys drawn from a small domain
// so every key has a long match list — the ordering-sensitive case.
func genBuild(n, distinct int, seed int64) [][]storage.Word {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]storage.Word, n)
	for i := range rows {
		rows[i] = []storage.Word{
			storage.EncodeInt(rng.Int63n(int64(distinct))),
			storage.EncodeInt(int64(i)), // original index witness
		}
	}
	return rows
}

// newTestPool starts a pool of n workers that the test closes when it
// ends.
func newTestPool(t testing.TB, n int) *par.Pool {
	pool := par.NewPool(n)
	t.Cleanup(pool.Close)
	return pool
}

// serialMatches replays the pre-partitioning flat build: per key, build row
// indices in input order.
func serialMatches(rows [][]storage.Word, key int) map[storage.Word][]int {
	out := map[storage.Word][]int{}
	for i, r := range rows {
		out[r[key]] = append(out[r[key]], i)
	}
	return out
}

// assertTableMatchesSerial checks every key's match list resolves to the
// same rows in the same order as the serial flat build.
// buildWords counts the build words stored across tbl's partitions.
func buildWords(tbl *Table) int {
	n := 0
	for i := range tbl.parts {
		n += len(tbl.parts[i].build)
	}
	return n
}

func assertTableMatchesSerial(t *testing.T, label string, rows [][]storage.Word, tbl *Table, key, width int) {
	t.Helper()
	want := serialMatches(rows, key)
	seen := 0
	for k, wantIdx := range want {
		matches, flat := tbl.Lookup(k)
		if len(matches) != len(wantIdx) {
			t.Fatalf("%s: key %d has %d matches, want %d", label, k, len(matches), len(wantIdx))
		}
		for i, m := range matches {
			got := flat[int(m)*width : int(m+1)*width]
			exp := rows[wantIdx[i]]
			for c := range exp {
				if got[c] != exp[c] {
					t.Fatalf("%s: key %d match %d = row %v, want %v (order broken)", label, k, i, got, exp)
				}
			}
		}
		seen += len(matches)
	}
	if seen != len(rows) {
		t.Fatalf("%s: %d rows reachable, want %d", label, seen, len(rows))
	}
	if got := buildWords(tbl); got != len(rows)*width {
		t.Fatalf("%s: build words = %d, want %d", label, got, len(rows)*width)
	}
	if m, _ := tbl.Lookup(storage.EncodeInt(-12345)); m != nil {
		t.Fatalf("%s: absent key produced %d matches", label, len(m))
	}
}

// TestPartitionedBuildMatchesSerial sweeps sizes and worker counts; small
// morsels force many morsels so the scatter's morsel-order guarantee is
// exercised, not bypassed.
func TestPartitionedBuildMatchesSerial(t *testing.T) {
	var pools []*par.Pool
	for _, workers := range []int{1, 2, 4, 8} {
		pools = append(pools, newTestPool(t, workers))
	}
	for _, n := range []int{0, 1, 100, minPartitionRows, 60_000} {
		rows := genBuild(n, 97, int64(n)+5)
		for _, pool := range pools {
			workers, opt := pool.Workers(), par.Options{Pool: pool, MorselRows: 2048}
			tbl := Build(rows, 0, 2, opt)
			label := fmt.Sprintf("n=%d workers=%d parts=%d", n, workers, len(tbl.parts))
			if workers > 1 && n >= minPartitionRows && len(tbl.parts) == 1 {
				t.Fatalf("%s: expected a partitioned build", label)
			}
			if workers == 1 && len(tbl.parts) != 1 {
				t.Fatalf("%s: serial build must stay unpartitioned", label)
			}
			assertTableMatchesSerial(t, label, rows, tbl, 0, 2)
		}
	}
}

// TestBuildOnPool runs the three build phases on a shared pool.
func TestBuildOnPool(t *testing.T) {
	rows := genBuild(40_000, 1000, 11)
	tbl := Build(rows, 0, 2, par.Options{Pool: newTestPool(t, 4), MorselRows: 4096})
	assertTableMatchesSerial(t, "pool", rows, tbl, 0, 2)
}

// TestBuildWideRowsNonZeroKey uses a non-leading key column and wider rows.
func TestBuildWideRowsNonZeroKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := make([][]storage.Word, 20_000)
	for i := range rows {
		rows[i] = []storage.Word{
			storage.EncodeInt(int64(i)),
			storage.EncodeInt(rng.Int63n(31)),
			storage.EncodeInt(rng.Int63()),
			storage.EncodeInt(int64(i % 3)),
		}
	}
	tbl := Build(rows, 1, 4, par.Options{Pool: newTestPool(t, 4), MorselRows: 1024})
	assertTableMatchesSerial(t, "wide", rows, tbl, 1, 4)
}

// BenchmarkBuild times the build alone (histogram, scatter, per-partition
// tables) over 1M two-word rows, the size of the Figure 3 join's build
// side, across a fixed worker sweep; workers=1 is the serial flat build.
func BenchmarkBuild(b *testing.B) {
	rows := genBuild(1_000_000, 1_000_000, 1)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := par.WithPool(newTestPool(b, w))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(rows, 0, 2, opt)
			}
		})
	}
}
