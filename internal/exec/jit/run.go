package jit

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/sortpar"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Engine is the JiT-compilation engine. The zero value runs scans on every
// core; use New for the serial engine or NewParallel to pick a worker
// count.
type Engine struct {
	opt par.Options
}

// New returns the serial engine (workers = 1), the configuration of the
// paper's single-core measurements.
func New() Engine { return Engine{opt: par.Serial()} }

// NewParallel returns an engine whose table scans run under the morsel
// scheduler with the given options (Workers == 0 means GOMAXPROCS).
// Results are identical to the serial engine's, row order included.
func NewParallel(opt par.Options) Engine { return Engine{opt: opt} }

// Name returns "jit".
func (Engine) Name() string { return "jit" }

// Run compiles the plan into pipeline programs and executes them once.
// Repeated executions of the same plan should use Prepare, which separates
// compilation from execution the way HyPer's query compiler does.
func (e Engine) Run(n plan.Node, c *plan.Catalog) *result.Set {
	if ins, ok := n.(plan.Insert); ok {
		return exec.RunInsert(ins, c)
	}
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
	exec     func(tr *obs.QueryTrace) [][]storage.Word
	protos   []obs.OpProto
	workers  int
	accesses []exec.TableAccess
}

// PrepareOpt compiles the plan with the given parallelism options baked
// into the executable form.
func PrepareOpt(n plan.Node, c *plan.Catalog, opt par.Options) *Prepared {
	workers := opt.WorkerCount()
	tb := &traceBuild{}
	if ins, ok := n.(plan.Insert); ok {
		idx := tb.add("insert", "table="+ins.Table, 0)
		return &Prepared{
			cols:    plan.Output(n, c),
			protos:  tb.protos,
			workers: workers,
			exec: func(tr *obs.QueryTrace) [][]storage.Word {
				start := clock(tr)
				rows := exec.RunInsert(ins, c).Rows
				tr.Op(idx).Add(int64(len(ins.Rows)), int64(len(rows)), since(start))
				return rows
			},
		}
	}
	ex := prepareNode(n, c, opt, tb, 0)
	return &Prepared{
		cols:     plan.Output(n, c),
		exec:     ex,
		protos:   tb.protos,
		workers:  workers,
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
	out.Rows = p.exec(tr)
	return out
}

// NewTrace instantiates a trace shaped for this compiled plan: one
// accumulator per operator in plan pre-order, lanes sized for the compiled
// worker count. Each trace accounts one ExecTraced call; traces are not
// reusable across executions.
func (p *Prepared) NewTrace() *obs.QueryTrace {
	return obs.NewTrace(p.protos, p.workers)
}

// prepareNode compiles a plan subtree into an executable closure. Pipeline
// breakers (aggregate, sort, limit) sit between compiled pipelines. tb
// collects operator descriptors in plan pre-order; depth is the subtree's
// depth in the rendered trace.
func prepareNode(n plan.Node, c *plan.Catalog, opt par.Options, tb *traceBuild, depth int) func(*obs.QueryTrace) [][]storage.Word {
	switch v := n.(type) {
	case plan.Sort:
		idx := tb.add("sort", fmt.Sprintf("keys=%d", len(v.Keys)), depth)
		child := prepareNode(v.Child, c, opt, tb, depth+1)
		return func(tr *obs.QueryTrace) [][]storage.Word {
			rows := child(tr)
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
		return func(tr *obs.QueryTrace) [][]storage.Word {
			rows := child(tr)
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
		k := compileScanAgg(p, v)
		return func(tr *obs.QueryTrace) [][]storage.Word {
			if k != nil {
				if rows, ok := k.run(opt, tr, idx); ok {
					return rows
				}
			}
			return genericAggregate(p, v, opt, tr, idx)
		}
	default:
		p := compilePipe(n, c, opt, tb, depth)
		return func(tr *obs.QueryTrace) [][]storage.Word {
			if p.parallelizable(opt) {
				return p.runParallelRows(opt, tr)
			}
			r := &runner{}
			p.runSerial(tr, r.emitRow)
			return r.rows
		}
	}
}

// runner materializes emitted register images through an arena, so a full
// scan costs one allocation per arena chunk instead of one per row.
type runner struct {
	arena result.Arena
	rows  [][]storage.Word
}

func (r *runner) emitRow(regs []storage.Word) {
	r.rows = append(r.rows, r.arena.Copy(regs))
}

// runSerial drives the pipeline over its whole source on the calling
// goroutine — the index fetch loop or the fused range loop — and, when tr
// is armed, accounts the run as worker 0's one morsel. Serial execution
// mutates stage buffers, counts and the index-lookup scratch, so every
// call runs a private clone and concurrent Execs never share one. It
// returns the emitted-row count of an armed run (0 disarmed).
func (p *pipe) runSerial(tr *obs.QueryTrace, emit func([]storage.Word)) int64 {
	start := clock(tr)
	q := p.cloneForWorker()
	if q.useIndex {
		q.runIndex(emit)
	} else {
		q.runRange(0, q.rel.Rows(), make([]storage.Word, q.srcWidth), emit)
	}
	if tr == nil {
		return 0
	}
	return q.flushCounts(tr, 0, false, start)
}

// runIndex is the index-backed source loop: it fetches the lookup result
// and runs the same per-row body as runRange over those rows only.
func (p *pipe) runIndex(emit func([]storage.Word)) {
	regs := make([]storage.Word, p.srcWidth)
	var complexRow int
	complexFn := func(a int) storage.Word { return p.rel.Value(complexRow, a) }
	p.indexRows = p.idx.Lookup(p.key, p.indexRows[:0])
	p.scanned += int64(len(p.indexRows))
rows:
	for _, r := range p.indexRows {
		row := int(r)
		for i := range p.baseTests {
			t := &p.baseTests[i]
			if !t.pass(t.data[row*t.stride+t.off]) {
				continue rows
			}
		}
		if p.complex != nil {
			complexRow = row
			if !expr.EvalPred(p.complex, complexFn) {
				continue rows
			}
		}
		for i := range p.loads {
			l := &p.loads[i]
			regs[l.reg] = l.data[row*l.stride+l.off]
		}
		p.passed++
		p.pushStages(0, regs, emit)
	}
}

// runRange is the fused scan loop over the row range [lo, hi): compiled
// tests by direct slice access, register loads, then the stages. It is the
// unit the morsel scheduler drives — each worker runs it on its claimed
// morsel with worker-private regs and a worker-private pipe clone, whose
// counts it advances whether or not a trace will read them.
func (p *pipe) runRange(lo, hi int, regs []storage.Word, emit func([]storage.Word)) {
	var complexRow int
	complexFn := func(a int) storage.Word { return p.rel.Value(complexRow, a) }
	p.scanned += int64(hi - lo)
rows:
	for row := lo; row < hi; row++ {
		for i := range p.baseTests {
			t := &p.baseTests[i]
			if !t.pass(t.data[row*t.stride+t.off]) {
				continue rows
			}
		}
		if p.complex != nil {
			complexRow = row
			if !expr.EvalPred(p.complex, complexFn) {
				continue rows
			}
		}
		for i := range p.loads {
			l := &p.loads[i]
			regs[l.reg] = l.data[row*l.stride+l.off]
		}
		p.passed++
		p.pushStages(0, regs, emit)
	}
}

// pushStages advances a register image through the stages starting at si,
// counting each stage's survivors in the stage itself. Only multi-match
// probes recurse; the single-match path stays in the flat loop.
func (p *pipe) pushStages(si int, regs []storage.Word, emit func([]storage.Word)) {
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
					p.pushStages(si+1, buf, emit)
				}
				return
			}
			copy(buf[:w], build[int(matches[0])*w:])
			regs = buf
		}
		st.out++
	}
	emit(regs)
}
