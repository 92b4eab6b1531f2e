package vector

import (
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/expr"
	"repro/internal/storage"
)

// parScanIt is the morsel-parallel base-table scan: the morsel scheduler
// materializes every morsel's surviving batches up front (selection and
// gather run exactly as in the serial scanIt, per worker), and next()
// serves the batches in morsel order. Because morsels are numbered in row
// order, the emitted row order is identical to the serial scan's; only
// batch boundaries may differ, which no consumer observes. The cost of
// parallelism is that the scan output is materialized instead of
// streamed — batch columns are carved from per-worker arenas to keep that
// materialization to one allocation per arena chunk.
type parScanIt struct {
	slots  [][]batch
	mi, bi int
}

// scanWorker is one worker's scratch state: a reused selection vector and
// the arena backing the batches it materializes.
type scanWorker struct {
	sel   []int32
	arena result.Arena
}

func newParScan(rel *storage.Relation, filter expr.Pred, cols []int, opt par.Options) *parScanIt {
	n := rel.Rows()
	conjs := conjuncts(filter)
	slots := make([][]batch, opt.Morsels(n))
	pool := make([]*scanWorker, opt.WorkerCount())
	par.Run(n, opt, func(w, m, lo, hi int) {
		ws := pool[w]
		if ws == nil {
			ws = &scanWorker{sel: make([]int32, 0, BatchSize)}
			pool[w] = ws
		}
		var out []batch
		for pos := lo; pos < hi; {
			bhi := pos + BatchSize
			if bhi > hi {
				bhi = hi
			}
			ws.sel = ws.sel[:0]
			if len(conjs) == 0 {
				for r := pos; r < bhi; r++ {
					ws.sel = append(ws.sel, int32(r))
				}
			} else {
				first := true
				for _, conj := range conjs {
					ws.sel = applyConj(rel, conj, ws.sel, first, pos, bhi)
					first = false
				}
			}
			pos = bhi
			if len(ws.sel) == 0 {
				continue
			}
			b := batch{cols: make([][]storage.Word, len(cols)), n: len(ws.sel)}
			for i, attr := range cols {
				a := rel.Access(attr)
				dst := ws.arena.NewRow(len(ws.sel))
				for j, r := range ws.sel {
					dst[j] = a.Data[int(r)*a.Stride+a.Off]
				}
				b.cols[i] = dst
			}
			out = append(out, b)
		}
		slots[m] = out
	})
	return &parScanIt{slots: slots}
}

func (s *parScanIt) next() (batch, bool) {
	for s.mi < len(s.slots) {
		if s.bi < len(s.slots[s.mi]) {
			b := s.slots[s.mi][s.bi]
			s.bi++
			return b, true
		}
		s.mi++
		s.bi = 0
	}
	return batch{}, false
}
