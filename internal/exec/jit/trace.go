package jit

import (
	"time"

	"repro/internal/obs"
)

// Tracing in the jit engine reads the counts of the loops that serve every
// query: the source loops (runRange, runIndex) and the body they share
// (runRows, pushStages) count, traced or not, into their worker's private
// pipe clone — the source's rows scanned and rows past the fused filter in
// the pipe, each stage's survivors in the stage. An armed trace (tr != nil)
// reads the clock and flushes those counts once per morsel (a serial or
// index-backed run is one morsel) in flushCounts, never per row; a
// disarmed execution reads no clock and flushes nothing.
//
// An operator's input is its predecessor's output, so the chain of counts
// reconstructs per-operator rows in/out exactly. Wall time is measured
// per morsel around the fused loop and attributed to every operator fused
// into it (the paper's point is precisely that these operators share one
// loop; their time is not separable and the trace does not pretend it is).

// traceBuild collects operator descriptors during compilation, in plan
// pre-order (parents before children).
type traceBuild struct {
	protos []obs.OpProto
}

func (tb *traceBuild) add(op, detail string, depth int) int {
	tb.protos = append(tb.protos, obs.OpProto{Op: op, Detail: detail, Depth: depth})
	return len(tb.protos) - 1
}

// setStatic records prepare-time measurements (the hash-join build side
// executes at compile time) on an already-added descriptor.
func (tb *traceBuild) setStatic(i int, rowsIn, rowsOut, nanos int64) {
	p := &tb.protos[i]
	p.Static, p.RowsIn, p.RowsOut, p.Nanos = true, rowsIn, rowsOut, nanos
}

// clock reads the time for an armed trace and returns the zero time for a
// disarmed one, which since then reports as 0 without reading the clock.
func clock(tr *obs.QueryTrace) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func since(start time.Time) int64 {
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Nanoseconds()
}

// flushCounts folds the counts this clone gathered in the morsel started at
// start into the trace, zeroes them, and returns the rows the pipeline
// emitted; disarmed, it books nothing and returns 0. Each fused operator
// books the morsel on the lane of the clone's worker (written only by it),
// stolen if a static block partitioning would have given it another worker.
func (p *pipe) flushCounts(tr *obs.QueryTrace, stolen bool, start time.Time) int64 {
	if tr == nil {
		return 0
	}
	nanos, op, in, out := since(start), p.srcOp, p.scanned, p.passed
	p.scanned, p.passed = 0, 0
	for i := 0; ; i++ {
		o := tr.Op(op)
		o.Add(in, out, nanos)
		if l := o.Lane(p.w); l != nil {
			l.Rows, l.Nanos, l.Morsels = l.Rows+out, l.Nanos+nanos, l.Morsels+1
			if stolen {
				l.Stolen++
			}
		}
		if i == len(p.stages) {
			return out
		}
		st := &p.stages[i]
		op, in, out, st.out = st.opIdx, out, st.out, 0
	}
}
