package jit

import (
	"sync/atomic"

	"repro/internal/exec/par"
	"repro/internal/obs"
	"repro/internal/storage"
)

// shape returns the workers and morsels a run of the pipe under opt takes.
// Serial options, and an index source (whose lookup result is small), run
// as worker 0's one morsel on the calling goroutine; a range scan under
// parallel options runs as par.Run's morsels.
func (p *pipe) shape(opt par.Options) (workers, morsels int) {
	if !opt.Parallel() || p.useIndex {
		return 1, 1
	}
	return opt.WorkerCount(), opt.Morsels(p.rel.Rows())
}

// A sink takes what a run of a pipe emits: each row of morsel m, in row
// order, from the worker w running that morsel, one at a time out of the
// stages (emit) or a gathered block of n rows laid end to end from a pipe
// without stages (emitBlock). Workers emit concurrently, so a sink keeps
// its state per worker or per morsel and merges it in morsel order
// afterwards, which reproduces a one-morsel run's output.
type sink interface {
	emit(w, m int, regs []storage.Word)
	emitBlock(w, m int, block []storage.Word, n int)
}

// run drives the pipe over its source into out, as shape lays it out, and
// returns the rows it emitted when tr is armed (0 when not). Each worker
// runs a clone of its own; an armed trace gets each morsel's counts as the
// morsel ends.
func (p *pipe) run(opt par.Options, tr *obs.QueryTrace, out sink) int64 {
	if workers, _ := p.shape(opt); workers == 1 {
		q, start := p.cloneForWorker(0), clock(tr)
		if q.useIndex {
			q.runIndex(out)
		} else {
			q.runRange(0, q.rel.Rows(), out)
		}
		return q.flushCounts(tr, 0, false, start)
	}
	n := p.rel.Rows()
	clones := make([]*pipe, opt.WorkerCount())
	var emitted atomic.Int64
	par.Run(n, opt, func(w, m, lo, hi int) {
		if clones[w] == nil {
			clones[w] = p.cloneForWorker(w)
		}
		q, start := clones[w], clock(tr)
		q.m = m
		q.runRange(lo, hi, out)
		emitted.Add(q.flushCounts(tr, w, stolen(opt, n, w, m), start))
	})
	return emitted.Load()
}

// cloneForWorker gives worker w its own executable view of the pipe — the
// view every run executes, so concurrent Execs never share one. Stage
// output buffers, the register block, the selection vector and the
// operator counts are the only state the loops mutate, so the clone shares
// the compiled tests, loads and probe tables with the original and
// replaces just those (the source loop sizes the block and selection).
func (p *pipe) cloneForWorker(w int) *pipe {
	q := *p
	q.w, q.sel, q.block = w, nil, nil
	q.stages = append([]stage(nil), p.stages...)
	for i := range q.stages {
		if q.stages[i].buf != nil {
			q.stages[i].buf = make([]storage.Word, len(q.stages[i].buf))
		}
	}
	return &q
}

// Emitted-row chunks grow from the first size to the last by doubling, so
// a morsel emitting a few rows allocates little.
const (
	firstRowChunkWords = 128
	maxRowChunkWords   = 32 * 1024
)

// rowSink materializes the emitted rows. Each morsel lays its rows end to
// end in chunks of its own; rows cuts the row views from them in morsel
// order into one exactly sized slice. A one-morsel run, an index lookup's
// say, keeps its morsel in one, so the sink is a single allocation.
type rowSink struct {
	width   int
	morsels []morselRows
	one     [1]morselRows
}

// morselRows is what one morsel emitted: its full chunks, then the one it
// is filling.
type morselRows struct {
	full  [][]storage.Word
	chunk []storage.Word
	rows  int
	_     [8]byte // pads to 64 bytes: workers fill neighbouring morsels at once
}

func newRowSink(p *pipe, opt par.Options) *rowSink {
	s := &rowSink{width: p.outWidth}
	if _, morsels := p.shape(opt); morsels == 1 {
		s.morsels = s.one[:]
	} else {
		s.morsels = make([]morselRows, morsels)
	}
	return s
}

func (s *rowSink) emit(w, m int, regs []storage.Word) { s.emitBlock(w, m, regs, 1) }

// emitBlock copies the block's rows into the morsel's chunks, as many
// whole rows into each as it has room for.
func (s *rowSink) emitBlock(_, m int, block []storage.Word, n int) {
	o := &s.morsels[m]
	o.rows += n
	for len(block) > 0 {
		if cap(o.chunk)-len(o.chunk) < s.width {
			if len(o.chunk) > 0 {
				o.full = append(o.full, o.chunk)
			}
			size := min(max(2*cap(o.chunk), firstRowChunkWords), maxRowChunkWords)
			o.chunk = make([]storage.Word, 0, max(size, s.width))
		}
		k := min(len(block), (cap(o.chunk)-len(o.chunk))/s.width*s.width)
		o.chunk, block = append(o.chunk, block[:k]...), block[k:]
	}
}

func (s *rowSink) rows() [][]storage.Word {
	total := 0
	for _, o := range s.morsels {
		total += o.rows
	}
	rows, k := make([][]storage.Word, total), 0
	for _, o := range s.morsels {
		for _, c := range o.full {
			k = cutRows(rows, k, c, s.width)
		}
		k = cutRows(rows, k, o.chunk, s.width)
	}
	for ; k < total; k++ { // rows without columns
		rows[k] = []storage.Word{}
	}
	return rows
}

// cutRows cuts the rows laid end to end in span into rows[k:] and returns
// the next free index.
func cutRows(rows [][]storage.Word, k int, span []storage.Word, width int) int {
	for ; len(span) > 0; span = span[width:] {
		rows[k] = span[:width:width] // capped, so appending to a row cannot clobber its neighbour
		k++
	}
	return k
}
