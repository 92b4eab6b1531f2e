package jit

import (
	"sync/atomic"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
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

// A sink takes the rows a run of a pipe passes from the worker w running
// morsel m, in row order: each chunk's passing rows, ungathered, or, into
// a stageSink, each row out of the stages. Workers emit concurrently, so a
// sink keeps its state per worker or per morsel and merges it in morsel
// order afterwards, which reproduces a one-morsel run's output.
type sink interface{ emitRows(w, m int, b batch) }

// A stageSink also takes a row out of a pipe's stages.
type stageSink interface {
	sink
	emit(w, m int, regs []storage.Word)
}

// run drives the pipe over its source into out, as shape lays it out, and
// returns the rows it emitted when tr is armed (0 when not). Each worker
// runs a clone of its own; an armed trace gets each morsel's counts as the
// morsel ends.
func (p *pipe) run(opt par.Options, tr *obs.QueryTrace, out sink) int64 {
	workers, morsels := p.shape(opt)
	if workers == 1 {
		q, start := p.cloneForWorker(0), clock(tr)
		if q.useIndex {
			q.runIndex(out)
		} else {
			q.runRange(0, q.rel.Rows(), out)
		}
		return q.flushCounts(tr, false, start)
	}
	clones, emitted := make([]*pipe, workers), new(atomic.Int64)
	par.Run(p.rel.Rows(), opt, func(w, m, lo, hi int) {
		if clones[w] == nil {
			clones[w] = p.cloneForWorker(w)
		}
		q, start := clones[w], clock(tr)
		q.m = m
		q.runRange(lo, hi, out)
		emitted.Add(q.flushCounts(tr, par.ExpectedWorker(m, morsels, workers) != w, start))
	})
	return emitted.Load()
}

// cloneForWorker gives worker w its own executable view of the pipe — the
// view every run executes, so concurrent Execs never share one. Stage
// output buffers, the register block, the selection vector and the
// operator counts are the only state the loops mutate, so the clone shares
// the compiled tests, loads and probe tables with the original and
// replaces just those (the loops size the selection and the block).
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
// a morsel emitting a few rows allocates little; a stage-free pipe's are
// also no larger than its morsel can still fill.
const (
	firstRowChunkWords = 128
	maxRowChunkWords   = 32 * 1024
)

// rowSink materializes the emitted rows. Each morsel lays its rows end to
// end in chunks of its own; rows cuts the row views from them in morsel
// order into one exactly sized slice. A one-morsel run, an index lookup's
// say, keeps its morsel in one, so the sink is a single allocation. The
// chunks and the views come from out, the set the rows go to (nil where
// they are not the plan's result): large ones are recycled memory that
// out keeps, so the sink writes every word it hands out.
type rowSink struct {
	width   int
	out     *result.Set
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

func newRowSink(p *pipe, opt par.Options, out *result.Set) *rowSink {
	s := &rowSink{width: p.outWidth, out: out}
	if _, morsels := p.shape(opt); morsels == 1 {
		s.morsels = s.one[:]
	} else {
		s.morsels = make([]morselRows, morsels)
	}
	return s
}

// room makes room for a row of width words at the end of the chunk,
// setting a full one aside for a new one from out of at most limit words.
func (o *morselRows) room(out *result.Set, width, limit int) {
	if cap(o.chunk)-len(o.chunk) >= width {
		return
	}
	if len(o.chunk) > 0 {
		o.full = append(o.full, o.chunk)
	}
	size := min(max(2*cap(o.chunk), firstRowChunkWords), maxRowChunkWords, limit)
	o.chunk = out.Chunk(max(size, width))
}

func (s *rowSink) emit(_, m int, regs []storage.Word) {
	o := &s.morsels[m]
	o.rows++
	o.room(s.out, s.width, maxRowChunkWords)
	o.chunk = append(o.chunk, regs...)
}

// emitRows gathers the rows straight into the morsel's chunks.
func (s *rowSink) emitRows(_, m int, b batch) {
	o, w := &s.morsels[m], s.width
	o.rows += b.n
	for i := 0; i < b.n && w > 0; {
		o.room(s.out, w, (b.n-i+b.rest)*w)
		k, end := min(b.n-i, blockRows, (cap(o.chunk)-len(o.chunk))/w), len(o.chunk)
		o.chunk = o.chunk[:end+k*w]
		b.gather(o.chunk[end:], i)
		i += k
	}
}

func (s *rowSink) rows() [][]storage.Word {
	total := 0
	for _, o := range s.morsels {
		total += o.rows
	}
	rows, k := s.out.RowViews(total), 0
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
