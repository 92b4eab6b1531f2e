package par

import (
	"sync"
	"testing"
	"time"
)

// TestPoolRunCoversAllMorsels: the morsel ranges partition [0, n) for
// awkward sizes (not multiples of the morsel, smaller than one morsel,
// empty), every morsel is claimed once, and worker ids are in range.
func TestPoolRunCoversAllMorsels(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		pool := newTestPool(t, workers)
		opt := Options{Pool: pool, MorselRows: 4096}
		for _, n := range []int{0, 1, 7, 4096, 4097, 100_000} {
			var mu sync.Mutex
			seen := make([]int, n)
			morsels := map[int]bool{}
			Run(n, opt, func(worker, morsel, lo, hi int) {
				if worker < 0 || worker >= pool.Workers() {
					t.Errorf("worker id %d out of range [0,%d)", worker, pool.Workers())
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

// TestPoolConcurrentJobs submits many jobs from concurrent goroutines —
// the service's steady state — and checks each job's coverage is exact.
func TestPoolConcurrentJobs(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()

	const jobs, n = 16, 4_096
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mu sync.Mutex
			sum := 0
			Run(n, Options{Pool: pool, MorselRows: 64}, func(_, _, lo, hi int) {
				s := 0
				for r := lo; r < hi; r++ {
					s += r
				}
				mu.Lock()
				sum += s
				mu.Unlock()
			})
			if want := n * (n - 1) / 2; sum != want {
				t.Errorf("job sum = %d, want %d", sum, want)
			}
		}()
	}
	wg.Wait()
}

// TestPoolRoundRobinFairness pins the scheduling order with a single
// worker: while job A is mid-flight, job B arrives, and the worker must
// alternate between the two instead of draining A first. It drives the
// pool's scheduler directly through submit — Run would (correctly)
// collapse a one-worker pool onto the inline serial path.
func TestPoolRoundRobinFairness(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()

	var mu sync.Mutex
	var order []string
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}

	inFirst := make(chan struct{}) // A's first morsel has started
	gate := make(chan struct{})    // holds A's first morsel open
	aDone := make(chan struct{})
	bDone := make(chan struct{})

	go func() {
		defer close(aDone)
		first := true
		pool.submit(4, 1, 4, func(_, _, _, _ int) {
			if first {
				first = false
				close(inFirst)
				<-gate
			}
			record("A")
		})
	}()
	<-inFirst
	go func() {
		defer close(bDone)
		pool.submit(2, 1, 2, func(_, _, _, _ int) {
			record("B")
		})
	}()
	// Wait until B is actually on the active list (A is still there too:
	// three of its morsels are unclaimed) before letting the worker out of
	// A's first morsel; from then on it must alternate between the jobs.
	for {
		pool.mu.Lock()
		queued := len(pool.jobs)
		pool.mu.Unlock()
		if queued == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-aDone
	<-bDone

	// Round-robin order with one worker: A0 B0 A1 B1 A2 A3 — both B
	// morsels must complete before A's last one.
	lastB := -1
	lastA := -1
	for i, tag := range order {
		if tag == "B" {
			lastB = i
		} else {
			lastA = i
		}
	}
	if lastB == -1 || lastA == -1 || lastB > lastA {
		t.Fatalf("no round-robin interleaving: order = %v", order)
	}
}

// TestPoolPanicPropagates checks a panicking body re-raises on the
// submitting goroutine, not a pool worker, and the pool stays usable.
func TestPoolPanicPropagates(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	opt := Options{Pool: pool, MorselRows: 8}

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		Run(64, opt, func(_, m, _, _ int) {
			if m == 3 {
				panic("boom")
			}
		})
		t.Fatal("Run returned without panicking")
	}()

	// Pool survives: a fresh job still runs to completion.
	count := 0
	var mu sync.Mutex
	Run(64, opt, func(_, _, lo, hi int) {
		mu.Lock()
		count += hi - lo
		mu.Unlock()
	})
	if count != 64 {
		t.Fatalf("post-panic job covered %d rows, want 64", count)
	}
}

// TestPoolClosedFallsBackInline checks Run on a closed pool degrades to
// the serial inline path instead of hanging.
func TestPoolClosedFallsBackInline(t *testing.T) {
	pool := NewPool(2)
	pool.Close()

	count := 0
	Run(1_000, Options{Pool: pool, MorselRows: 100}, func(worker, _, lo, hi int) {
		if worker != 0 {
			t.Errorf("inline fallback used worker %d", worker)
		}
		count += hi - lo // no mutex: must be single-goroutine
	})
	if count != 1_000 {
		t.Fatalf("covered %d rows, want 1000", count)
	}
}

// TestPoolSingleMorselRunsInline checks that a job too small to split
// never pays the pool round-trip.
func TestPoolSingleMorselRunsInline(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	calls := 0
	Run(10, Options{Pool: pool, MorselRows: 64}, func(worker, morsel, lo, hi int) {
		calls++ // unsynchronized on purpose: must run on this goroutine
		if worker != 0 || morsel != 0 || lo != 0 || hi != 10 {
			t.Errorf("got worker=%d morsel=%d range=[%d,%d)", worker, morsel, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("body ran %d times, want 1", calls)
	}
}

// TestPoolDropsFinishedJobs: once Run returns, no slot of the pool's job
// list, within its length or beyond it, still points at the job, so a
// finished job's body and what it captured (a relayout's source table,
// say) can be collected.
func TestPoolDropsFinishedJobs(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for i := 0; i < 3; i++ {
		Run(1000, Options{Pool: pool, MorselRows: 10}, func(_, _, _, _ int) {})
		pool.mu.Lock()
		for k, j := range pool.jobs[:cap(pool.jobs)] {
			if j != nil {
				t.Errorf("run %d: job slot %d still holds a finished job", i, k)
			}
		}
		pool.mu.Unlock()
	}
}
