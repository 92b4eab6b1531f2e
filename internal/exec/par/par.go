// Package par is the morsel-driven parallel scan scheduler of the jit
// engine and of the set-up work (relayouts, clips, index and join builds,
// sorts) that runs beside it (Leis et al., SIGMOD '14, adapted
// NUMA-agnostically): a scan over n rows is split into fixed-size
// row-range morsels, and the workers of one shared Pool claim them. A
// worker that finishes its morsel early simply claims the next one, so
// skew in per-morsel selectivity or emit volume balances itself without
// per-worker queues. The Pool is the one parallel runtime: options
// without one run serially on the caller.
//
// Determinism contract: morsels are numbered in row order, and every
// engine that emits rows buffers each morsel's output separately and
// concatenates the buffers in morsel order. Parallel execution therefore
// produces row-for-row the same result as the serial loop, which the
// differential tests assert for every engine and layout.
package par

// DefaultMorselRows is the scheduler's largest default morsel: large
// enough that claiming a morsel (a few instructions under the pool's
// lock) is negligible against scanning it, small enough that
// work-stealing balances selective scans.
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

// Options configures parallel execution. The zero value, with no Pool,
// is serial: Run calls the body on the caller's goroutine. With a Pool,
// Run dispatches morsels to it, and worker ids seen by bodies are
// pool-wide, so per-worker state sized by WorkerCount stays correct.
type Options struct {
	Pool       *Pool // shared worker pool; nil = serial
	MorselRows int   // rows per morsel; 0 = the rule of morselRows
}

// Serial returns the options of single-threaded execution.
func Serial() Options { return Options{} }

// WithPool returns options that execute on a shared pool.
func WithPool(p *Pool) Options { return Options{Pool: p} }

// WorkerCount is the pool's worker count, or 1 without a pool.
func (o Options) WorkerCount() int {
	if o.Pool != nil {
		return o.Pool.Workers()
	}
	return 1
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
// pool's claims.
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

// Run partitions [0, n) into morsels and processes them on opt's pool.
// body is called once per morsel with the claiming worker's id
// (0 <= worker < WorkerCount), the morsel's index in row order, and the
// morsel's row range [lo, hi). Without a pool, with one worker or one
// morsel, or on a closed pool, body runs on the calling goroutine as
// worker 0. A panic in body is re-raised on the caller.
func Run(n int, opt Options, body func(worker, morsel, lo, hi int)) {
	if n <= 0 {
		return
	}
	m := opt.morselRows(n)
	morsels := opt.Morsels(n)
	if !opt.Parallel() || morsels == 1 {
		runSerial(n, m, morsels, body)
		return
	}
	opt.Pool.submit(n, m, morsels, body)
}

// runSerial is the inline path shared by serial options and a closed
// pool: every morsel runs on the calling goroutine as worker 0.
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
