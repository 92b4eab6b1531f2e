package jit

import (
	"repro/internal/exec/par"
	"repro/internal/obs"
	"repro/internal/storage"
)

// parallelizable reports whether the pipe can run under the morsel
// scheduler: index-backed pipes fetch a (small) row-id list and stay
// serial.
func (p *pipe) parallelizable(opt par.Options) bool {
	return opt.Parallel() && !p.useIndex
}

// cloneForWorker gives one worker — or one concurrent execution — its own
// executable view of the pipe. Stage output buffers, the index-lookup
// scratch and the operator counts are the only state the fused loop
// mutates besides the register file, so the clone shares the compiled
// tests, loads and probe tables with the original and replaces just those.
func (p *pipe) cloneForWorker() *pipe {
	q := *p
	q.indexRows = nil
	q.stages = append([]stage(nil), p.stages...)
	for i := range q.stages {
		if q.stages[i].buf != nil {
			q.stages[i].buf = make([]storage.Word, len(q.stages[i].buf))
		}
	}
	return &q
}

// pipeWorker is the per-worker execution state of a parallel run: a pipe
// clone, a private register file and a private chunk the emitted rows are
// laid end to end in. Workers are created lazily by the first morsel each
// one claims.
type pipeWorker struct {
	pipe  *pipe
	regs  []storage.Word
	chunk []storage.Word // filled up to cap, then replaced by a larger one
}

// Emitted-row chunks grow from the first size to the last by doubling, as
// result.Arena's do, so a scan emitting a few rows allocates little.
const (
	firstRowChunkWords = 128
	maxRowChunkWords   = 32 * 1024
)

// morselRows is what one morsel emitted: rows of the pipe's output width,
// laid end to end in spans of its worker's chunks.
type morselRows struct {
	spans [][]storage.Word
	rows  int
}

func (p *pipe) worker(pool []*pipeWorker, w int) *pipeWorker {
	if pool[w] == nil {
		pool[w] = &pipeWorker{
			pipe: p.cloneForWorker(),
			regs: make([]storage.Word, p.srcWidth),
		}
	}
	return pool[w]
}

// runParallelRows drives the pipe with the morsel scheduler and returns
// the emitted rows. Every morsel records its emits separately, as spans of
// the claiming worker's chunks; the row views are cut from the spans in
// morsel order into one exactly-sized slice, so the output is row-for-row
// identical to the serial loop.
func (p *pipe) runParallelRows(opt par.Options, tr *obs.QueryTrace) [][]storage.Word {
	n := p.rel.Rows()
	slots := make([]morselRows, opt.Morsels(n))
	pool := make([]*pipeWorker, opt.WorkerCount())
	par.Run(n, opt, func(w, m, lo, hi int) {
		ws := p.worker(pool, w)
		start := clock(tr)
		out, from := &slots[m], len(ws.chunk)
		ws.pipe.runRange(lo, hi, ws.regs, func(regs []storage.Word) {
			if cap(ws.chunk)-len(ws.chunk) < len(regs) {
				out.spans = append(out.spans, ws.chunk[from:])
				size := min(max(2*cap(ws.chunk), firstRowChunkWords), maxRowChunkWords)
				ws.chunk, from = make([]storage.Word, 0, max(size, len(regs))), 0
			}
			ws.chunk = append(ws.chunk, regs...)
			out.rows++
		})
		out.spans = append(out.spans, ws.chunk[from:])
		if tr != nil {
			ws.pipe.flushCounts(tr, w, stolen(opt, n, w, m), start)
		}
	})
	total := 0
	for _, s := range slots {
		total += s.rows
	}
	rows, k, w := make([][]storage.Word, total), 0, p.outWidth
	for _, s := range slots {
		for _, span := range s.spans {
			for ; len(span) > 0; span = span[w:] {
				rows[k] = span[:w:w] // capped, so appending to a row cannot clobber its neighbour
				k++
			}
		}
	}
	for ; k < total; k++ { // rows without columns
		rows[k] = []storage.Word{}
	}
	return rows
}
