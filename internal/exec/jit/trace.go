package jit

import (
	"time"

	"repro/internal/exec/par"
	"repro/internal/obs"
)

// Tracing in the jit engine reads the counts of the loops that serve every
// query: the source loops (runRange, runIndex) and the body they share
// (runRows, pushStages) count, traced or not, into their worker's
// private pipe clone — the source's rows scanned and rows past the fused
// filter in the pipe, each stage's survivors in the stage. An armed trace
// (tr != nil) reads the clock and flushes those counts once per morsel (a
// serial or index-backed run is one morsel), never per row; a disarmed
// execution reads no clock and flushes nothing, so it pays only the
// increments themselves.
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

// stolen reports whether worker w claimed morsel m of an n-row scan away
// from the worker a static block partitioning would have given it.
func stolen(opt par.Options, n, w, m int) bool {
	return par.ExpectedWorker(m, opt.Morsels(n), opt.WorkerCount()) != w
}

// addMorsel accounts one morsel of a fused operator:
// totals via atomics, the claiming worker's lane directly (lane w is only
// ever written by worker w).
func addMorsel(op *obs.OpTrace, worker int, rowsIn, rowsOut, nanos int64, stolen bool) {
	op.Add(rowsIn, rowsOut, nanos)
	if l := op.Lane(worker); l != nil {
		l.Rows += rowsOut
		l.Nanos += nanos
		l.Morsels++
		if stolen {
			l.Stolen++
		}
	}
}

// flushCounts folds the counts this clone gathered in the morsel started at
// start into the trace as worker's, zeroes them, and returns the rows the
// pipeline emitted. A disarmed trace gets nothing and it returns 0.
func (p *pipe) flushCounts(tr *obs.QueryTrace, worker int, stolen bool, start time.Time) int64 {
	if tr == nil {
		return 0
	}
	nanos := since(start)
	addMorsel(tr.Op(p.srcOp), worker, p.scanned, p.passed, nanos, stolen)
	in := p.passed
	p.scanned, p.passed = 0, 0
	for i := range p.stages {
		st := &p.stages[i]
		addMorsel(tr.Op(st.opIdx), worker, in, st.out, nanos, stolen)
		in, st.out = st.out, 0
	}
	return in
}
