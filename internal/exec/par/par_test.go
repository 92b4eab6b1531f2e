package par

import (
	"sync"
	"testing"
)

// newTestPool starts a pool of n workers that the test closes when it
// ends.
func newTestPool(t testing.TB, n int) *Pool {
	pool := NewPool(n)
	t.Cleanup(pool.Close)
	return pool
}

// TestRunCoversAllRowsExactlyOnce: without a pool the morsel ranges
// still partition [0, n) for awkward sizes (not multiples of the morsel,
// smaller than one morsel, empty), each morsel runs once, and every call
// is worker 0 on the caller's goroutine.
func TestRunCoversAllRowsExactlyOnce(t *testing.T) {
	opt := Options{MorselRows: 4096}
	for _, n := range []int{0, 1, 7, 4096, 4097, 100_000} {
		seen := make([]int, n)
		morsels := map[int]bool{}
		Run(n, opt, func(worker, morsel, lo, hi int) {
			if worker != 0 {
				t.Errorf("serial run called worker %d, want 0", worker)
			}
			if morsels[morsel] {
				t.Errorf("morsel %d claimed twice", morsel)
			}
			morsels[morsel] = true
			for r := lo; r < hi; r++ {
				seen[r]++
			}
		})
		for r, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: row %d processed %d times", n, r, c)
			}
		}
		if len(morsels) != opt.Morsels(n) {
			t.Fatalf("n=%d: %d morsels ran, want %d", n, len(morsels), opt.Morsels(n))
		}
	}
}

// TestPanicPropagates: a panic inside a body must surface on the caller,
// on the serial inline path and on a pool alike.
func TestPanicPropagates(t *testing.T) {
	for name, opt := range map[string]Options{
		"serial": {MorselRows: 100},
		"pool":   {Pool: newTestPool(t, 4), MorselRows: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: body panic did not propagate", name)
				}
			}()
			Run(10_000, opt, func(_, morsel, _, _ int) {
				if morsel == 7 {
					panic("boom")
				}
			})
		}()
	}
}

// TestMorselIndexMatchesRange: morsel i must always be the range starting
// at i*MorselRows — the invariant the deterministic output merge rests on.
func TestMorselIndexMatchesRange(t *testing.T) {
	opt := Options{Pool: newTestPool(t, 4), MorselRows: 1000}
	Run(10_500, opt, func(_, morsel, lo, hi int) {
		if lo != morsel*1000 {
			t.Errorf("morsel %d starts at %d, want %d", morsel, lo, morsel*1000)
		}
		if hi != lo+1000 && hi != 10_500 {
			t.Errorf("morsel %d ends at %d", morsel, hi)
		}
	})
}

// TestWorkerCountDefaults: the zero value is serial, and options with a
// pool run on that pool's workers.
func TestWorkerCountDefaults(t *testing.T) {
	if (Options{}) != Serial() {
		t.Error("the zero value must be the serial options")
	}
	if got := (Options{}).WorkerCount(); got != 1 {
		t.Errorf("zero options workers = %d, want 1", got)
	}
	if Serial().Parallel() {
		t.Error("Serial must not report parallel")
	}
	pool := newTestPool(t, 2)
	if opt := WithPool(pool); opt.WorkerCount() != 2 || !opt.Parallel() {
		t.Errorf("a two-worker pool: %d workers, parallel %v", opt.WorkerCount(), opt.Parallel())
	}
	if WithPool(newTestPool(t, 1)).Parallel() {
		t.Error("a one-worker pool must not report parallel")
	}
}

func TestMorselsOf(t *testing.T) {
	opt := Options{MorselRows: 100}
	cases := map[int]int{0: 0, 1: 1, 99: 1, 100: 1, 101: 2, 1000: 10}
	for n, want := range cases {
		if got := opt.Morsels(n); got != want {
			t.Errorf("Morsels(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDefaultMorselRule: with MorselRows unset a scan is cut into at least
// four morsels per worker of at least 8,192 and at most DefaultMorselRows
// rows; Run covers [0, n) exactly once in that many morsels, and
// ExpectedWorker hands every worker a contiguous block of them. An explicit
// MorselRows is taken as it is.
func TestDefaultMorselRule(t *testing.T) {
	want := map[int][3]int{ // morsels at 1, 2 and 4 workers
		0:         {0, 0, 0},
		1:         {1, 1, 1},
		8_191:     {1, 1, 1},
		8_192:     {1, 1, 1},
		100_000:   {4, 8, 13},
		2_000_000: {31, 31, 31},
	}
	pools := []*Pool{newTestPool(t, 1), newTestPool(t, 2), newTestPool(t, 4)}
	for n, counts := range want {
		for i, pool := range pools {
			opt, workers := WithPool(pool), pool.Workers()
			if got := opt.Morsels(n); got != counts[i] {
				t.Errorf("n=%d workers=%d: %d morsels, want %d", n, workers, got, counts[i])
			}
			seen := make([]int, n)
			sizes := make([]int, opt.Morsels(n))
			var mu sync.Mutex
			Run(n, opt, func(_, m, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				sizes[m] = hi - lo
				for r := lo; r < hi; r++ {
					seen[r]++
				}
			})
			for r, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: row %d processed %d times", n, workers, r, c)
				}
			}
			for m, size := range sizes {
				if size > DefaultMorselRows || (m < len(sizes)-1 && size < minMorselRows) {
					t.Errorf("n=%d workers=%d: morsel %d has %d rows", n, workers, m, size)
				}
			}
			if n >= morselsPerWorker*workers*minMorselRows && n <= morselsPerWorker*workers*DefaultMorselRows && len(sizes) < morselsPerWorker*workers {
				t.Errorf("n=%d workers=%d: %d morsels, want at least %d per worker", n, workers, len(sizes), morselsPerWorker)
			}
			prev := 0
			for m := range sizes {
				w := ExpectedWorker(m, len(sizes), workers)
				if w < prev || w >= workers {
					t.Errorf("n=%d workers=%d: morsel %d expected on worker %d after worker %d", n, workers, m, w, prev)
				}
				prev = w
			}
		}
	}
	if two := WithPool(pools[1]); two.Morsels(2_000_000) != 31 || two.morselRows(2_000_000) != DefaultMorselRows {
		t.Errorf("2,000,000 rows at 2 workers: %d morsels, want 31 of %d rows", two.Morsels(2_000_000), DefaultMorselRows)
	}
	explicit := Options{Pool: pools[1], MorselRows: 2048}
	if got := explicit.Morsels(50_000); got != 25 {
		t.Errorf("MorselRows 2048 over 50,000 rows: %d morsels, want 25", got)
	}
	Run(50_000, explicit, func(_, m, lo, hi int) {
		if lo != m*2048 || hi != min(lo+2048, 50_000) {
			t.Errorf("MorselRows 2048: morsel %d is [%d, %d)", m, lo, hi)
		}
	})
}
