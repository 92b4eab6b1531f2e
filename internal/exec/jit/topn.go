package jit

import (
	"fmt"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
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
func prepareTopN(srt plan.Sort, k int, c *plan.Catalog, opt par.Options, tb *traceBuild, depth int) execFunc {
	idx := tb.add("top-n", fmt.Sprintf("k=%d keys=%d", k, len(srt.Keys)), depth)
	switch srt.Child.(type) {
	case plan.Aggregate, plan.Sort, plan.Limit, plan.Insert:
		// The sort child is itself a breaker: its output is already
		// materialized, so the heap only bounds the sorted copy.
		child := prepareNode(srt.Child, c, opt, tb, depth+1)
		return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word {
			rows := child(tr, nil)
			start := clock(tr)
			t := sortpar.NewTopN(srt.Keys, k)
			for i, r := range rows {
				t.Offer(r, 0, i)
			}
			out := sortpar.MergeTopN([]*sortpar.TopN{t}, srt.Keys, k)
			tr.Op(idx).Add(int64(len(rows)), int64(len(out)), since(start))
			return out
		}
	}
	p := compilePipe(srt.Child, c, opt, tb, depth+1)
	return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word {
		start := clock(tr)
		workers, _ := p.shape(opt)
		tops := make(topSink, workers)
		for w := range tops {
			tops[w] = &topWorker{heap: sortpar.NewTopN(srt.Keys, k)}
		}
		offered := p.run(opt, tr, tops)
		heaps := make([]*sortpar.TopN, len(tops))
		for w, t := range tops {
			heaps[w] = t.heap
		}
		out := sortpar.MergeTopN(heaps, srt.Keys, k)
		tr.Op(idx).Add(offered, int64(len(out)), since(start))
		return out
	}
}

// topSink feeds each worker's rows to a bounded heap of its own. A row's
// ordinal — its morsel, then its worker's emit count — breaks key ties in
// serial emission order, so the heaps merge into the exact first k rows of
// the stable sort.
type topSink []*topWorker

type topWorker struct {
	heap  *sortpar.TopN
	seq   int
	block []storage.Word // the register block a stage-free pipe's rows are gathered into
	_     [24]byte       // a cache line of its own: seq moves on every row
}

func (s topSink) emit(w, m int, regs []storage.Word) {
	t := s[w]
	t.heap.Offer(regs, m, t.seq)
	t.seq++
}

func (s topSink) emitRows(w, m int, b batch) {
	for regs := range b.gathered(&s[w].block) {
		s.emit(w, m, regs)
	}
}
