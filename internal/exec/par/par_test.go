package par

import (
	"runtime"
	"sync"
	"testing"
)

// TestRunCoversAllRowsExactlyOnce: the morsel ranges partition [0, n) for
// awkward sizes (not multiples of the morsel, smaller than one morsel,
// empty).
func TestRunCoversAllRowsExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 4097, 100_000} {
		for _, workers := range []int{1, 2, 3, 8} {
			opt := Options{Workers: workers, MorselRows: 4096}
			var mu sync.Mutex
			seen := make([]int, n)
			morsels := map[int]bool{}
			Run(n, opt, func(worker, morsel, lo, hi int) {
				if worker < 0 || worker >= opt.WorkerCount() {
					t.Errorf("worker id %d out of range", worker)
				}
				mu.Lock()
				if morsels[morsel] {
					t.Errorf("morsel %d claimed twice", morsel)
				}
				morsels[morsel] = true
				for r := lo; r < hi; r++ {
					seen[r]++
				}
				mu.Unlock()
			})
			for r, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: row %d processed %d times", n, workers, r, c)
				}
			}
			if len(morsels) != opt.Morsels(n) {
				t.Fatalf("n=%d workers=%d: %d morsels ran, want %d", n, workers, len(morsels), opt.Morsels(n))
			}
		}
	}
}

// TestMorselIndexMatchesRange: morsel i must always be the range starting
// at i*MorselRows — the invariant the deterministic output merge rests on.
func TestMorselIndexMatchesRange(t *testing.T) {
	opt := Options{Workers: 4, MorselRows: 1000}
	Run(10_500, opt, func(_, morsel, lo, hi int) {
		if lo != morsel*1000 {
			t.Errorf("morsel %d starts at %d, want %d", morsel, lo, morsel*1000)
		}
		if hi != lo+1000 && hi != 10_500 {
			t.Errorf("morsel %d ends at %d", morsel, hi)
		}
	})
}

func TestWorkerCountDefaults(t *testing.T) {
	if got := (Options{}).WorkerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero options workers = %d, want GOMAXPROCS", got)
	}
	if got := Serial().WorkerCount(); got != 1 {
		t.Errorf("Serial workers = %d, want 1", got)
	}
	if Serial().Parallel() {
		t.Error("Serial must not report parallel")
	}
	if !(Options{Workers: 2}).Parallel() {
		t.Error("two workers must report parallel")
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

// TestPanicPropagates: a panic inside a worker must surface on the caller,
// not crash the process from a goroutine.
func TestPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	Run(10_000, Options{Workers: 4, MorselRows: 100}, func(_, morsel, _, _ int) {
		if morsel == 7 {
			panic("boom")
		}
	})
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
	for n, counts := range want {
		for i, workers := range []int{1, 2, 4} {
			opt := Options{Workers: workers}
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
	if got := (Options{Workers: 2}).Morsels(2_000_000); got != 31 || (Options{Workers: 2}).morselRows(2_000_000) != DefaultMorselRows {
		t.Errorf("2,000,000 rows at 2 workers: %d morsels, want 31 of %d rows", got, DefaultMorselRows)
	}
	explicit := Options{Workers: 2, MorselRows: 2048}
	if got := explicit.Morsels(50_000); got != 25 {
		t.Errorf("MorselRows 2048 over 50,000 rows: %d morsels, want 25", got)
	}
	Run(50_000, explicit, func(_, m, lo, hi int) {
		if lo != m*2048 || hi != min(lo+2048, 50_000) {
			t.Errorf("MorselRows 2048: morsel %d is [%d, %d)", m, lo, hi)
		}
	})
}
