package jit

import (
	"fmt"
	"iter"

	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/sortpar"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Engine is the JiT-compilation engine, the one engine that runs in
// parallel. The zero value is serial; NewParallel runs it on a pool.
type Engine struct {
	opt par.Options
}

// New returns the serial engine, the configuration of the paper's
// single-core measurements.
func New() Engine { return Engine{opt: par.Serial()} }

// NewParallel returns an engine whose table scans run under the morsel
// scheduler with the given options, on their pool. Results are identical
// to the serial engine's, row order included.
func NewParallel(opt par.Options) Engine { return Engine{opt: opt} }

// Name returns "jit".
func (Engine) Name() string { return "jit" }

// Run compiles the plan into pipeline programs and executes them once.
// Repeated executions of the same plan should use PrepareOpt, which separates
// compilation from execution the way HyPer's query compiler does.
func (e Engine) Run(n plan.Node, c *plan.Catalog) *result.Set {
	return PrepareOpt(n, c, e.opt).Exec()
}

// Prepared is a compiled query: the pipeline programs, probe tables and
// output schema are built once; Exec re-runs the compiled form (index
// lookups are re-evaluated per execution). Like any prepared statement
// over materialized build sides, a Prepared must be re-prepared after the
// underlying tables change.
//
// Exec is safe for concurrent use by multiple goroutines (except for
// Insert plans, which mutate the table): the compiled form is read-only
// and every execution works on private register files, stage buffers and
// sinks. The service layer relies on this to run one cached Prepared for
// many simultaneous requests.
type Prepared struct {
	cols     []plan.Column
	exec     execFunc
	protos   []obs.OpProto
	workers  int
	accesses []exec.TableAccess
}

// PrepareOpt compiles the plan with the given parallelism options baked
// into the executable form.
func PrepareOpt(n plan.Node, c *plan.Catalog, opt par.Options) *Prepared {
	tb := &traceBuild{}
	ex := prepareNode(n, c, opt, tb, 0)
	return &Prepared{
		cols:     plan.Output(n, c),
		exec:     ex,
		protos:   tb.protos,
		workers:  opt.WorkerCount(),
		accesses: exec.CollectAccesses(n, c),
	}
}

// Accesses returns the compiled plan's base-table footprint — which
// tables and attribute positions each execution reads, and how many rows
// it scans — computed once at compile time. The service's workload
// capture resolves it into atomic counters so the per-execution cost of
// always-on telemetry is a handful of atomic adds.
func (p *Prepared) Accesses() []exec.TableAccess { return p.accesses }

// Exec runs the compiled query with tracing disarmed.
func (p *Prepared) Exec() *result.Set { return p.ExecTraced(nil) }

// ExecTraced runs the compiled query, threading tr (from NewTrace) through
// every operator. Traced or not, an execution runs the same loops; a nil
// trace reads no clock and flushes no counts.
func (p *Prepared) ExecTraced(tr *obs.QueryTrace) *result.Set {
	out := result.New(p.cols)
	out.Rows = p.exec(tr, out)
	return out
}

// NewTrace instantiates a trace shaped for this compiled plan: one
// accumulator per operator in plan pre-order, lanes sized for the compiled
// worker count. Each trace accounts one ExecTraced call; traces are not
// reusable across executions.
func (p *Prepared) NewTrace() *obs.QueryTrace {
	return obs.NewTrace(p.protos, p.workers)
}

// An execFunc runs a compiled plan subtree under trace tr and returns its
// rows. out is the set those rows are returned in where the subtree is
// the plan's root, and nil elsewhere: a pipe at the root lays its rows in
// memory out keeps (result.Set.Chunk and RowViews), so a service that
// releases the set once its reply is written recycles that memory. Every
// other operator passes nil to its children and returns rows the
// collector owns.
type execFunc func(tr *obs.QueryTrace, out *result.Set) [][]storage.Word

// prepareNode compiles a plan subtree into an executable closure. Pipeline
// breakers (aggregate, sort, limit, insert) sit between compiled pipelines. tb
// collects operator descriptors in plan pre-order; depth is the subtree's
// depth in the rendered trace.
func prepareNode(n plan.Node, c *plan.Catalog, opt par.Options, tb *traceBuild, depth int) execFunc {
	switch v := n.(type) {
	case plan.Insert:
		idx := tb.add("insert", "table="+v.Table, depth)
		return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word {
			start := clock(tr)
			rows := exec.RunInsert(v, c).Rows
			tr.Op(idx).Add(int64(len(v.Rows)), int64(len(rows)), since(start))
			return rows
		}
	case plan.Sort:
		idx := tb.add("sort", fmt.Sprintf("keys=%d", len(v.Keys)), depth)
		child := prepareNode(v.Child, c, opt, tb, depth+1)
		return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word {
			rows := child(tr, nil)
			start := clock(tr)
			sortpar.Sort(rows, v.Keys, opt)
			tr.Op(idx).Add(int64(len(rows)), int64(len(rows)), since(start))
			return rows
		}
	case plan.Limit:
		// ORDER BY … LIMIT k fuses into a bounded top-N: no execution ever
		// materializes more than k sorted rows per worker before the merge.
		if srt, ok := v.Child.(plan.Sort); ok {
			return prepareTopN(srt, v.N, c, opt, tb, depth)
		}
		idx := tb.add("limit", fmt.Sprintf("n=%d", v.N), depth)
		child := prepareNode(v.Child, c, opt, tb, depth+1)
		return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word {
			rows := child(tr, nil)
			in := int64(len(rows))
			if len(rows) > v.N {
				rows = rows[:v.N]
			}
			tr.Op(idx).Add(in, int64(len(rows)), 0)
			return rows
		}
	case plan.Aggregate:
		idx := tb.add("group-by", fmt.Sprintf("groupBy=%d aggs=%d", len(v.GroupBy), len(v.Aggs)), depth)
		p := compilePipe(v.Child, c, opt, tb, depth+1)
		if k := compileScanAgg(p, v); k != nil {
			return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word {
				rows, _ := k.run(opt, tr, idx)
				return rows
			}
		}
		return func(tr *obs.QueryTrace, _ *result.Set) [][]storage.Word { return genericAggregate(p, v, opt, tr, idx) }
	default:
		p := compilePipe(n, c, opt, tb, depth)
		return func(tr *obs.QueryTrace, out *result.Set) [][]storage.Word {
			s := newRowSink(p, opt, out)
			p.run(opt, tr, s)
			return s.rows()
		}
	}
}

// chunkRows is the rows a range scan filters at a time: a chunk's selection
// vector stays in L1. Filtering into it first, then running the rest of the
// pipe over the passing rows, is the staging point of Relaxed Operator
// Fusion (Menon, Pavlo, Mowry, VLDB 2017) without code generation.
const chunkRows = 1024

// blockRows is the rows gathered at a time. Each load fills its column of
// the destination in one pass, so it (16 KiB for eight registers) and the
// rows it reads must stay in L1; a chunk of eight-word rows, 64 KiB,
// overflowed a 48 KiB L1 and made wide_result's gather 1.3x slower.
const blockRows = 256

// runRange is the scan loop over the row range [lo, hi): chunk by chunk,
// filter selects the rows that pass the base tests and runRows runs the
// rest of the pipe over them.
func (p *pipe) runRange(lo, hi int, out sink) {
	if len(p.sel) < chunkRows {
		p.sel = make([]int32, chunkRows)
	}
	p.scanned += int64(hi - lo)
	for c := lo; c < hi; c += chunkRows {
		end := min(c+chunkRows, hi)
		p.runRows(p.filter(c, end), hi-end, out)
	}
}

// runIndex is the index-backed source loop: the lookup result is the
// selection, which each base test shrinks before runRows runs over it.
func (p *pipe) runIndex(out sink) {
	p.sel = p.idx.Lookup(p.key, p.sel[:0])
	p.scanned += int64(len(p.sel))
	for i := 0; i < len(p.baseTests) && len(p.sel) > 0; i++ {
		p.sel = p.baseTests[i].shrink(p.sel)
	}
	p.runRows(passing{n: len(p.sel), sel: p.sel}, 0, out)
}

// filter returns the rows of chunk [lo, hi) that pass every base test, in
// the selection vector: the first test writes it, later ones compact it.
// Base-table tests are evaluated only here and, over an index lookup's
// selection, in runIndex.
func (p *pipe) filter(lo, hi int) passing {
	all, tests := passing{lo: lo, n: hi - lo}, p.baseTests
	if len(tests) == 0 {
		return all
	}
	sel := tests[0].first(lo, hi, p.sel)
	for i := 1; i < len(tests) && len(sel) > 0; i++ {
		sel = tests[i].shrink(sel)
	}
	if len(sel) == hi-lo {
		return all
	}
	return passing{lo: lo, n: len(sel), sel: sel}
}

// first writes the rows of [lo, hi) that pass s into sel. The range loop
// writes every row and advances past passing ones: no branch to mispredict.
func (s *test) first(lo, hi int, sel []int32) []int32 {
	d, st, v, span, n := s.data[s.off:], s.stride, s.lo, s.span, 0
	sel = sel[:hi-lo]
	if s.set != nil {
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		return s.shrink(sel)
	}
	for r := lo; r < hi; r++ {
		sel[n] = int32(r)
		if d[r*st]-v <= span {
			n++
		}
	}
	return sel[:n]
}

// shrink compacts sel to the rows that pass s.
func (s *test) shrink(sel []int32) []int32 {
	d, n := s.data[s.off:], 0
	for _, r := range sel {
		sel[n] = r
		if s.pass(d[int(r)*s.stride]) {
			n++
		}
	}
	return sel[:n]
}

// passing is a chunk's n passing rows: lo+i, or sel[i] when sel is not nil.
type passing struct {
	lo, n int
	sel   []int32
}

func (p passing) row(i int) int {
	if p.sel == nil {
		return p.lo + i
	}
	return int(p.sel[i])
}

// batch is a chunk's passing rows, still in the table, with the loads that
// gather them and rest, the most rows the morsel can pass after them.
type batch struct {
	passing
	loads []load
	rest  int
}

// runRows is the body every source loop shares, run over rows that passed
// the base tests (the morsel has rest more): the interpreted fallback
// shrinks them by the predicate the tests do not cover, then a pipe
// without stages hands them to its sink and one with stages pushes each.
func (p *pipe) runRows(rows passing, rest int, out sink) {
	if p.complex != nil {
		rows = p.keep(rows)
	}
	p.passed += int64(rows.n)
	if rows.n == 0 {
		return
	}
	b := batch{passing: rows, loads: p.loads, rest: rest}
	if len(p.stages) == 0 {
		out.emitRows(p.w, p.m, b)
		return
	}
	st := out.(stageSink)
	for regs := range b.gathered(&p.block) {
		p.pushStages(0, regs, st)
	}
}

// keep compacts rows to those that pass the interpreted fallback
// predicate, in the selection vector.
func (p *pipe) keep(rows passing) passing {
	sel, row, n := p.sel, 0, 0
	val := func(a int) storage.Word { return p.rel.Value(row, a) }
	for i := range rows.n {
		row = rows.row(i)
		sel[n] = int32(row)
		if expr.EvalPred(p.complex, val) {
			n++
		}
	}
	return passing{n: n, sel: sel[:n]}
}

// gather loads the rows from the i-th on into dst, as many as it holds,
// row j's registers at dst[j*len(loads):], one loop per load.
func (b batch) gather(dst []storage.Word, i int) {
	w := len(b.loads)
	if w == 0 || len(dst) == 0 {
		return
	}
	n := len(dst) / w
	for _, l := range b.loads {
		out := dst[l.reg : l.reg+(n-1)*w+1]
		if b.sel == nil {
			gatherRange(out, w, l.data[l.off+(b.lo+i)*l.stride:], l.stride)
		} else {
			gatherSel(out, w, l.data[l.off:], l.stride, b.sel[i:i+n])
		}
	}
}

// gatherRange copies src[0], src[st], ... into out[0], out[w], ... up to
// out's end. gather's loops are leaves of their own, kept out of line, so
// that the compiler holds their indexes in registers: inside gather an
// index went to the stack and back around every word.
//
//go:noinline
func gatherRange(out []storage.Word, w int, src []storage.Word, st int) {
	for o, s := 0, 0; o < len(out); o, s = o+w, s+st {
		out[o] = src[s]
	}
}

// gatherSel copies d[r*st] for each row r of sel into out[0], out[w], ...
//
//go:noinline
func gatherSel(out []storage.Word, w int, d []storage.Word, st int, sel []int32) {
	o := 0
	for _, r := range sel {
		out[o] = d[int(r)*st]
		o += w
	}
}

// gathered yields each row's registers, gathered blockRows rows at a time
// into the block, which is allocated on first use no larger than needed.
func (b batch) gathered(block *[]storage.Word) iter.Seq[[]storage.Word] {
	return func(yield func([]storage.Word) bool) {
		w := len(b.loads)
		for i := 0; i < b.n; i += blockRows {
			n := min(blockRows, b.n-i)
			if len(*block) < n*w {
				*block = make([]storage.Word, min(b.n+b.rest, blockRows)*w)
			}
			regs := (*block)[:n*w]
			b.gather(regs, i)
			for r := range n {
				if !yield(regs[r*w : (r+1)*w]) {
					return
				}
			}
		}
	}
}

// pushStages advances a register image through the stages starting at si,
// counting each stage's survivors in the stage itself. Only multi-match
// probes recurse; the single-match path stays in the flat loop.
func (p *pipe) pushStages(si int, regs []storage.Word, out stageSink) {
	for ; si < len(p.stages); si++ {
		st := &p.stages[si]
		switch st.kind {
		case stFilter:
			for i := range st.tests {
				t := &st.tests[i]
				if !t.pass(regs[t.pos]) {
					return
				}
			}
			if st.complex != nil {
				if !expr.EvalPred(st.complex, func(a int) storage.Word { return regs[a] }) {
					return
				}
			}
		case stMap:
			buf := st.buf
			for i := range st.maps {
				m := &st.maps[i]
				if m.isMove {
					buf[i] = regs[m.srcReg]
				} else {
					buf[i] = expr.EvalExpr(m.e, func(a int) storage.Word { return regs[a] })
				}
			}
			regs = buf
		case stProbe:
			matches, build := st.jt.Lookup(regs[st.keyReg])
			if len(matches) == 0 {
				return
			}
			w := st.addWidth
			buf := st.buf
			copy(buf[w:], regs)
			if len(matches) > 1 {
				st.out += int64(len(matches))
				for _, m := range matches {
					copy(buf[:w], build[int(m)*w:])
					p.pushStages(si+1, buf, out)
				}
				return
			}
			copy(buf[:w], build[int(matches[0])*w:])
			regs = buf
		}
		st.out++
	}
	out.emit(p.w, p.m, regs)
}
