// Package jit implements the reproduction's analogue of HyPer's JiT query
// compilation (Neumann, VLDB '11): a logical plan is compiled once into a
// flat pipeline program — direct slice accessors, data-driven predicate
// tests, probe tables and a sink — that executes as fused tight loops with
// no per-tuple interface calls or closure dispatch. Operators are merged
// into a single loop per pipeline; values enter the "registers" (a reused
// word buffer) once and stay there until no longer needed, mirroring the
// generated code of the paper's Figure 2c. Pipeline breakers (hash build,
// aggregation, sort) materialize, exactly as in the produce/consume
// compilation model.
//
// Where Go differs from LLVM codegen: instead of emitting machine code we
// specialize at plan-compile time into loop bodies, all driven by pipe.run.
// Every source filters a chunk of rows into a selection vector, one test
// over the whole chunk at a time. A pipe without stages hands the passing
// rows, still in the table, to its sink: the row sink gathers them one
// load at a time, and the scan-aggregate kernel (scanagg.go), the paper's
// hot shape of counts and integer sums, folds them one aggregate at a
// time, leaving each loop a load, a compare or add, a store. A pipe with
// stages gathers them into a register block and pushes each row through.
package jit

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// test is one compiled conjunct: a code-set probe when set is not nil,
// else the unsigned range check w-lo <= span (see lowerTest). For
// base-table tests, data/stride/off address the partition slice directly;
// for register tests data is nil and pos indexes the pipeline registers.
type test struct {
	data     []storage.Word
	stride   int
	off      int
	pos      int
	lo, span storage.Word
	set      *storage.CodeSet
}

// pass reports whether w passes t.
func (t *test) pass(w storage.Word) bool {
	if t.set != nil {
		return t.set.Contains(w)
	}
	return w-t.lo <= t.span
}

// load copies one base attribute into a register slot.
type load struct {
	data   []storage.Word
	stride int
	off    int
	reg    int
	dict   *storage.Dict // nil unless the attribute is dictionary-coded
}

type stageKind uint8

const (
	stFilter stageKind = iota
	stProbe
	stMap
)

// stage is one compiled post-source pipeline step.
type stage struct {
	kind stageKind

	// stFilter
	tests   []test
	complex expr.Pred

	// stProbe: regs become buildRow ++ oldRegs. The build rows lie
	// row-major in build, addWidth words each, and jt, a hash index over
	// their join keys, maps a key to its build rows in build order;
	// matches is the clone's scratch for one lookup's rows.
	jt       *index.HashIndex
	build    []storage.Word
	matches  []int32
	keyReg   int
	addWidth int

	// stMap: regs become the evaluated expressions.
	maps []mapSlot

	buf []storage.Word // output registers of width-changing stages

	opIdx int   // trace-op index of the operator this stage implements
	out   int64 // rows this stage passed on since the last flush (per clone)
}

// mapSlot computes one output register; column references compile to plain
// register moves.
type mapSlot struct {
	isMove bool
	srcReg int
	e      expr.Expr
}

// pipe is one compiled pipeline: a base-table source with fused filter and
// register loads, followed by stages. Index-backed pipes store the index
// and key and perform the lookup at execution time, so a compiled pipe
// stays valid across executions (prepared-query reuse).
type pipe struct {
	rel       *storage.Relation
	useIndex  bool
	idx       index.Index
	key       storage.Word
	baseTests []test
	complex   expr.Pred // interpreted fallback over base attributes
	loads     []load    // one per source register, in register order
	stages    []stage
	outWidth  int
	srcOp     int // trace-op index of the source scan

	// Execution state of a clone (see cloneForWorker): the worker running
	// it and its current morsel, the selection vector (a chunk's passing
	// rows, or the index lookup result) and the register block.
	w, m  int
	sel   []int32
	block []storage.Word

	// Source counts since the last flush (per clone, like the stage
	// counts): rows read from the table or index, and rows past the
	// fused source filter.
	scanned, passed int64
}

// compilePipe lowers a plan subtree into a pipeline. The caller must not
// pass pipeline breakers (Aggregate, Sort, Limit, Insert). opt governs the
// execution of nested pipeline breakers (hash-join build sides). Every
// operator registers a trace descriptor in tb before its children, keeping
// the trace in plan pre-order even though stages compile child-first.
func compilePipe(n plan.Node, c *plan.Catalog, opt par.Options, tb *traceBuild, depth int) *pipe {
	switch v := n.(type) {
	case plan.Scan:
		return compileScan(v, c, tb, depth)

	case plan.Select:
		idx := tb.add("select", "", depth)
		p := compilePipe(v.Child, c, opt, tb, depth+1)
		tests, complexPred := compilePred(v.Pred, nil)
		p.stages = append(p.stages, stage{kind: stFilter, tests: tests, complex: complexPred, opIdx: idx})
		return p

	case plan.Project:
		idx := tb.add("project", fmt.Sprintf("exprs=%d", len(v.Exprs)), depth)
		p := compilePipe(v.Child, c, opt, tb, depth+1)
		maps := make([]mapSlot, len(v.Exprs))
		for i, e := range v.Exprs {
			if col, ok := e.(expr.Col); ok {
				maps[i] = mapSlot{isMove: true, srcReg: col.Attr}
			} else {
				maps[i] = mapSlot{e: e}
			}
		}
		p.stages = append(p.stages, stage{
			kind:  stMap,
			maps:  maps,
			buf:   make([]storage.Word, len(maps)),
			opIdx: idx,
		})
		p.outWidth = len(maps)
		return p

	case plan.HashJoin:
		// Build side: materialize (pipeline breaker), lay the rows out
		// row-major and build a hash index over their join keys, as
		// morsels on opt's workers.
		//
		// The build executes here, at compile time, so its trace entry is
		// Static: measured once and replayed by every cached execution. The
		// left subtree's own operators are compiled against a throwaway
		// traceBuild — they never run again, so they have no per-execution
		// accumulators.
		probeIdx := tb.add("join-probe", "", depth)
		buildIdx := tb.add("join-build", "", depth+1)
		start := time.Now()
		leftRows := prepareNode(v.Left, c, opt, &traceBuild{}, 0)(nil, nil)
		leftWidth := len(plan.Output(v.Left, c))
		build := slices.Concat(leftRows...)
		jt := index.BuildHash(storage.Accessor{Data: build, Stride: leftWidth, Off: v.LeftKey}, len(leftRows), opt)
		tb.setStatic(buildIdx, int64(len(leftRows)), int64(len(leftRows)), time.Since(start).Nanoseconds())
		// Probe side: continue the pipeline.
		p := compilePipe(v.Right, c, opt, tb, depth+1)
		p.stages = append(p.stages, stage{
			kind:     stProbe,
			jt:       jt,
			build:    build,
			keyReg:   v.RightKey,
			addWidth: leftWidth,
			buf:      make([]storage.Word, leftWidth+p.outWidth),
			opIdx:    probeIdx,
		})
		p.outWidth = leftWidth + p.outWidth
		return p
	}
	panic(fmt.Sprintf("jit: node %T is not pipelineable", n))
}

func compileScan(v plan.Scan, c *plan.Catalog, tb *traceBuild, depth int) *pipe {
	rel := c.Table(v.Table)
	p := &pipe{rel: rel, outWidth: len(v.Cols)}
	filter := v.Filter
	if acc, ok := exec.PlanIndexAccess(c, v.Table, v.Filter); ok {
		p.useIndex = true
		p.idx = c.Index(v.Table, acc.Attr)
		p.key = acc.Key
		filter = acc.Rest
	}
	detail := "table=" + v.Table
	if p.useIndex {
		detail += " index"
	}
	p.srcOp = tb.add("scan", detail, depth)
	p.baseTests, p.complex = compilePred(filter, rel)
	p.loads = make([]load, 0, len(v.Cols))
	for i, attr := range v.Cols {
		a := rel.Access(attr)
		p.loads = append(p.loads, load{data: a.Data, stride: a.Stride, off: a.Off, reg: i, dict: rel.Dict(attr)})
	}
	return p
}

// compilePred lowers a predicate's conjuncts into tests: over base
// attributes by direct slice access when rel is set, else over register
// positions. Non-conjunctive structure stays interpreted.
func compilePred(p expr.Pred, rel *storage.Relation) ([]test, expr.Pred) {
	var tests []test
	var rest []expr.Pred
	for _, conj := range conjuncts(p) {
		t, ok := lowerTest(conj)
		switch {
		case !ok:
			rest = append(rest, conj)
			continue
		case rel != nil:
			a := rel.Access(attrOf(conj))
			t.data, t.stride, t.off = a.Data, a.Stride, a.Off
		default:
			t.pos = attrOf(conj)
		}
		tests = append(tests, t)
	}
	if len(rest) == 0 {
		return tests, nil
	}
	return tests, expr.Conj(rest...)
}

// lowerTest compiles a conjunct to one test shape. Every comparison,
// Between and NotNull is a range of words, Null being the largest (a range
// open at the top passes Null, as the comparison does); w != v is the
// range from v+1 around to v-1. A comparison no word passes becomes the
// empty code set, InSet its own set.
func lowerTest(p expr.Pred) (test, bool) {
	lo, hi, empty := storage.Word(0), storage.Null, false
	switch v := p.(type) {
	case expr.Cmp:
		switch v.Op {
		case expr.Eq:
			lo, hi = v.Val, v.Val
		case expr.Ne:
			return test{lo: v.Val + 1, span: storage.Null - 1}, true
		case expr.Lt:
			hi, empty = v.Val-1, v.Val == 0
		case expr.Le:
			hi = v.Val
		case expr.Gt:
			lo, empty = v.Val+1, v.Val == storage.Null
		default:
			lo = v.Val
		}
	case expr.Between:
		lo, hi, empty = v.Lo, v.Hi, v.Lo > v.Hi
	case expr.InSet:
		return test{set: v.Set}, true
	case expr.NotNull:
		hi = storage.Null - 1
	default:
		return test{}, false
	}
	if empty {
		return test{set: storage.NewCodeSet(nil, 0)}, true
	}
	return test{lo: lo, span: hi - lo}, true
}

func attrOf(p expr.Pred) int {
	switch v := p.(type) {
	case expr.Cmp:
		return v.Attr
	case expr.Between:
		return v.Attr
	case expr.InSet:
		return v.Attr
	case expr.NotNull:
		return v.Attr
	}
	panic("jit: predicate has no attribute")
}

func conjuncts(p expr.Pred) []expr.Pred {
	switch v := p.(type) {
	case nil:
		return nil
	case expr.True:
		return nil
	case expr.And:
		return v.Preds
	default:
		return []expr.Pred{p}
	}
}
