package jit

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec/par"
	"repro/internal/exec/sortpar"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// prepareTopN compiles the fused ORDER BY … LIMIT k form: instead of
// materializing and fully sorting the sort child's output and then
// truncating, emitted rows feed bounded top-N heaps, so an execution
// allocates O(k) rows per worker instead of O(n) — the asymptotic fix for
// top-N queries. The merged result is bit-identical to stable-sort-then-
// truncate: heaps break key ties by emission ordinal (morsel, seq), the
// serial emission order under the scheduler's determinism contract.
func prepareTopN(srt plan.Sort, k int, c *plan.Catalog, opt par.Options, tb *traceBuild, depth int) func(*obs.QueryTrace) [][]storage.Word {
	idx := tb.add("top-n", fmt.Sprintf("k=%d keys=%d", k, len(srt.Keys)), depth)
	switch srt.Child.(type) {
	case plan.Aggregate, plan.Sort, plan.Limit, plan.Insert:
		// The sort child is itself a breaker: its output is already
		// materialized, so the heap only bounds the sorted copy.
		child := prepareNode(srt.Child, c, opt, tb, depth+1)
		return func(tr *obs.QueryTrace) [][]storage.Word {
			rows := child(tr)
			start := clock(tr)
			out := topNRows(rows, srt.Keys, k)
			tr.Op(idx).Add(int64(len(rows)), int64(len(out)), since(start))
			return out
		}
	}
	p := compilePipe(srt.Child, c, opt, tb, depth+1)
	return func(tr *obs.QueryTrace) [][]storage.Word {
		if p.parallelizable(opt) {
			return p.runParallelTopN(srt.Keys, k, opt, tr, idx)
		}
		start := clock(tr)
		t := sortpar.NewTopN(srt.Keys, k)
		seq := 0
		p.runSerial(tr, func(regs []storage.Word) {
			t.Offer(regs, 0, seq)
			seq++
		})
		out := sortpar.MergeTopN([]*sortpar.TopN{t}, srt.Keys, k)
		tr.Op(idx).Add(int64(seq), int64(len(out)), since(start))
		return out
	}
}

// runParallelTopN drives the pipe with the morsel scheduler, each worker
// feeding a private bounded heap; candidates merge into the exact first k
// rows of the serial stable sort.
func (p *pipe) runParallelTopN(keys []plan.SortKey, k int, opt par.Options, tr *obs.QueryTrace, topIdx int) [][]storage.Word {
	n := p.rel.Rows()
	pool := make([]*pipeWorker, opt.WorkerCount())
	tops := make([]*sortpar.TopN, opt.WorkerCount())
	var offered atomic.Int64
	allStart := clock(tr)
	par.Run(n, opt, func(w, m, lo, hi int) {
		ws := p.worker(pool, w)
		if tops[w] == nil {
			tops[w] = sortpar.NewTopN(keys, k)
		}
		t := tops[w]
		seq := 0
		start := clock(tr)
		ws.pipe.runRange(lo, hi, ws.regs, func(regs []storage.Word) {
			t.Offer(regs, m, seq)
			seq++
		})
		if tr != nil {
			offered.Add(ws.pipe.flushCounts(tr, w, stolen(opt, n, w, m), start))
		}
	})
	out := sortpar.MergeTopN(tops, keys, k)
	tr.Op(topIdx).Add(offered.Load(), int64(len(out)), since(allStart))
	return out
}

// topNRows bounds already-materialized rows through a single heap.
func topNRows(rows [][]storage.Word, keys []plan.SortKey, k int) [][]storage.Word {
	t := sortpar.NewTopN(keys, k)
	for i, r := range rows {
		t.Offer(r, 0, i)
	}
	return sortpar.MergeTopN([]*sortpar.TopN{t}, keys, k)
}
