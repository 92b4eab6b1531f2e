package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a process-wide morsel scheduler shared by concurrent queries and
// the only place the execution and storage layers start goroutines. It
// keeps a fixed set of worker goroutines alive and multiplexes every
// submitted job (one job = one parallel scan) across them: workers claim
// morsels from the active jobs in round-robin order, so two queries
// submitted together each make progress instead of the first
// monopolizing the machine until it finishes.
//
// Morsels are numbered in row order and callers merge per-morsel output
// buffers in morsel order, so which worker runs which morsel — and how
// jobs interleave — never shows up in results.
//
// A Pool is safe for concurrent use. Jobs must not submit nested jobs to
// the same pool from inside a morsel body (the submitting worker would
// block waiting for capacity it itself provides); the engines never do —
// build sides execute on the caller's goroutine at compile time.
type Pool struct {
	workers int

	mu   sync.Mutex
	cond *sync.Cond
	jobs []*job // jobs with unclaimed morsels, in submission order
	rr   int    // round-robin cursor over jobs

	// busy accumulates per-worker nanoseconds spent inside morsel bodies
	// — the utilization signal /metrics exposes. Padded so neighboring
	// workers' counters never share a cache line.
	busy []paddedNanos

	closed bool
	wg     sync.WaitGroup
}

type paddedNanos struct {
	v atomic.Int64
	_ [7]int64
}

// job is one Run call executing on a pool: a morsel range plus completion
// tracking. next and pending are guarded by the pool mutex; claiming a
// morsel under the lock costs nanoseconds against the tens of microseconds
// a morsel of 8K to 64K rows takes to scan.
type job struct {
	n          int
	morselRows int
	morsels    int
	next       int // next unclaimed morsel
	pending    int // claimed-but-unfinished + unclaimed morsels
	body       func(worker, morsel, lo, hi int)
	done       chan struct{}
	panicOnce  sync.Once
	panicked   any
}

// NewPool starts a pool of n worker goroutines (n <= 0 means GOMAXPROCS).
// The pool runs until Close.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: n, busy: make([]paddedNanos, n)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go p.work(w)
	}
	return p
}

// Workers returns the pool's worker count. Worker ids passed to job bodies
// are in [0, Workers()).
func (p *Pool) Workers() int { return p.workers }

// BusyNanos snapshots the per-worker busy time: nanoseconds each worker
// has spent executing morsel bodies since the pool started. Combined
// with wall time, the deltas give pool utilization.
func (p *Pool) BusyNanos() []int64 {
	out := make([]int64, len(p.busy))
	for i := range p.busy {
		out[i] = p.busy[i].v.Load()
	}
	return out
}

// Close drains the remaining jobs and stops the workers. Run calls racing
// with (or after) Close fall back to inline serial execution, so shutdown
// is safe while queries are still arriving.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// work is one worker's loop: pick the round-robin next job, claim its next
// morsel, run it. A job leaves the active list when its last morsel is
// claimed; it completes when the last claimed morsel finishes.
func (p *Pool) work(id int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.jobs) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.jobs) == 0 {
			p.mu.Unlock()
			return
		}
		if p.rr >= len(p.jobs) {
			p.rr = 0
		}
		j := p.jobs[p.rr]
		m := j.next
		j.next++
		if j.next >= j.morsels {
			// Delete zeroes the vacated slot, so the backing array does
			// not keep the job's body, and all it captured, reachable.
			p.jobs = slices.Delete(p.jobs, p.rr, p.rr+1)
		} else {
			p.rr++
		}
		p.mu.Unlock()
		p.runMorsel(j, id, m)
	}
}

// runMorsel executes one claimed morsel and settles the job's completion
// accounting, capturing the first panic for re-raising on the submitter.
func (p *Pool) runMorsel(j *job, worker, m int) {
	start := time.Now()
	defer func() {
		p.busy[worker].v.Add(time.Since(start).Nanoseconds())
		if r := recover(); r != nil {
			j.panicOnce.Do(func() { j.panicked = r })
		}
		p.mu.Lock()
		j.pending--
		last := j.pending == 0
		p.mu.Unlock()
		if last {
			close(j.done)
		}
	}()
	lo := m * j.morselRows
	hi := lo + j.morselRows
	if hi > j.n {
		hi = j.n
	}
	j.body(worker, m, lo, hi)
}

// submit runs body over [0, n) on the pool and blocks until every morsel
// has finished. A panic in body is re-raised here, on the submitter.
func (p *Pool) submit(n, morselRows, morsels int, body func(worker, morsel, lo, hi int)) {
	j := &job{
		n: n, morselRows: morselRows, morsels: morsels,
		pending: morsels, body: body, done: make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		runSerial(n, morselRows, morsels, body)
		return
	}
	p.jobs = append(p.jobs, j)
	p.mu.Unlock()
	p.cond.Broadcast()
	<-j.done
	if j.panicked != nil {
		panic(j.panicked)
	}
}
