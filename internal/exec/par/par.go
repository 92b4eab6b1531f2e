// Package par is the morsel-driven parallel scan scheduler shared by the
// execution engines (Leis et al., SIGMOD '14, adapted NUMA-agnostically):
// a scan over n rows is split into fixed-size row-range morsels, and a
// pool of workers claims morsels through a shared atomic cursor. The
// cursor is the work-stealing mechanism — a worker that finishes its
// morsel early simply claims the next one, so skew in per-morsel
// selectivity or emit volume balances itself without per-worker queues.
//
// Determinism contract: morsels are numbered in row order, and every
// engine that emits rows buffers each morsel's output separately and
// concatenates the buffers in morsel order. Parallel execution therefore
// produces row-for-row the same result as the serial loop, which the
// differential tests assert for every engine and layout.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselRows is the scheduler's largest default morsel: large
// enough that claiming a morsel (one atomic add) is negligible against
// scanning it, small enough that work-stealing balances selective scans.
const DefaultMorselRows = 64 * 1024

// Below DefaultMorselRows per morsel, a scan of n rows is cut into
// morselsPerWorker morsels per worker, none smaller than minMorselRows.
// A table of a few hundred thousand rows therefore still gives every
// worker several morsels to steal, and a scan whose passing rows all sit
// in its first rows spreads them over every worker.
const (
	morselsPerWorker = 4
	minMorselRows    = 8 * 1024
)

// Options configures parallel execution. The zero value means "use every
// core": engines treat Workers <= 0 as GOMAXPROCS. Workers == 1 selects
// the serial path, which all engines retain unchanged.
//
// When Pool is set, Run dispatches morsels to that shared pool instead of
// spawning per-call goroutines, and the pool's size overrides Workers —
// worker ids seen by bodies are pool-wide, so per-worker state sized by
// WorkerCount stays correct.
type Options struct {
	Workers    int   // worker goroutines; 0 = GOMAXPROCS, 1 = serial
	MorselRows int   // rows per morsel; 0 = the rule of morselRows
	Pool       *Pool // shared worker pool; nil = per-call goroutines
}

// Serial returns the options of single-threaded execution.
func Serial() Options { return Options{Workers: 1} }

// WithPool returns options that execute on a shared pool.
func WithPool(p *Pool) Options { return Options{Pool: p} }

// WorkerCount resolves the worker knob against the machine.
func (o Options) WorkerCount() int {
	if o.Pool != nil {
		return o.Pool.Workers()
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Parallel reports whether the options select the parallel path.
func (o Options) Parallel() bool { return o.WorkerCount() > 1 }

// morselRows is the rows per morsel of a scan of n rows: MorselRows when
// set, else n split into morselsPerWorker morsels per worker, clamped to
// [minMorselRows, DefaultMorselRows].
func (o Options) morselRows(n int) int {
	if o.MorselRows > 0 {
		return o.MorselRows
	}
	return min(max(n/(morselsPerWorker*o.WorkerCount()), minMorselRows), DefaultMorselRows)
}

// Morsels returns the number of morsels covering n rows — the slot count
// for per-morsel output buffers merged in morsel order.
func (o Options) Morsels(n int) int {
	if n <= 0 {
		return 0
	}
	m := o.morselRows(n)
	return (n + m - 1) / m
}

// ExpectedWorker returns the worker a static block partitioning of
// morsels across workers would assign morsel m to — the reference
// assignment the tracing layer compares claims against: a morsel claimed
// by a different worker than its static owner counts as stolen. The
// scheduler itself never consults this; stealing is implicit in the
// shared cursor.
func ExpectedWorker(morsel, morsels, workers int) int {
	if workers <= 1 || morsels <= 0 {
		return 0
	}
	per := (morsels + workers - 1) / workers
	w := morsel / per
	if w >= workers {
		w = workers - 1
	}
	return w
}

// Run partitions [0, n) into morsels and processes them with a worker
// pool. body is called once per morsel with the claiming worker's id
// (0 <= worker < WorkerCount), the morsel's index in row order, and the
// morsel's row range [lo, hi). When a single worker (or a single morsel)
// makes goroutines pointless, body runs on the calling goroutine. A panic
// in body is re-raised on the caller.
func Run(n int, opt Options, body func(worker, morsel, lo, hi int)) {
	if n <= 0 {
		return
	}
	m := opt.morselRows(n)
	morsels := opt.Morsels(n)
	workers := opt.WorkerCount()
	if workers > morsels {
		workers = morsels
	}
	if workers <= 1 {
		runSerial(n, m, morsels, body)
		return
	}
	if opt.Pool != nil {
		opt.Pool.submit(n, m, morsels, body)
		return
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= morsels {
					return
				}
				lo := i * m
				hi := lo + m
				if hi > n {
					hi = n
				}
				body(worker, i, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runSerial is the inline fallback shared by the single-worker path and a
// closed pool: every morsel runs on the calling goroutine as worker 0.
func runSerial(n, morselRows, morsels int, body func(worker, morsel, lo, hi int)) {
	for i := 0; i < morsels; i++ {
		lo := i * morselRows
		hi := lo + morselRows
		if hi > n {
			hi = n
		}
		body(0, i, lo, hi)
	}
}
