package jit

import (
	"repro/internal/exec/par"
	"repro/internal/exec/result"
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
// clone, a private register file and a private arena for emitted rows.
// Workers are created lazily by the first morsel each one claims.
type pipeWorker struct {
	pipe  *pipe
	regs  []storage.Word
	arena result.Arena
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
// the emitted rows. Every morsel buffers its emits separately (backed by
// the claiming worker's arena); the buffers are concatenated in morsel
// order, so the output is row-for-row identical to the serial loop.
func (p *pipe) runParallelRows(opt par.Options, tr *obs.QueryTrace) [][]storage.Word {
	n := p.rel.Rows()
	slots := make([][][]storage.Word, opt.Morsels(n))
	pool := make([]*pipeWorker, opt.WorkerCount())
	par.Run(n, opt, func(w, m, lo, hi int) {
		ws := p.worker(pool, w)
		start := clock(tr)
		var rows [][]storage.Word
		ws.pipe.runRange(lo, hi, ws.regs, func(regs []storage.Word) {
			rows = append(rows, ws.arena.Copy(regs))
		})
		slots[m] = rows
		if tr != nil {
			ws.pipe.flushCounts(tr, w, stolen(opt, n, w, m), start)
		}
	})
	total := 0
	for _, s := range slots {
		total += len(s)
	}
	out := make([][]storage.Word, 0, total)
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}
