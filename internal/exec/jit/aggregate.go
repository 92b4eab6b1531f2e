package jit

import (
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// fastScanAggregate handles: pipeline without stages, index or interpreted
// residue; no grouping; aggregates restricted to count(*) and sum/count
// over integer columns. It compiles to the paper's single fused loop: scan,
// compare, accumulate — all operators merged, values never leaving the
// "registers". Under the morsel scheduler the loop runs once per morsel
// into per-morsel partial accumulators; integer addition is exact, so the
// morsel-order reduction is bit-identical to the serial loop.
//
// The kernel counts nothing per row beyond its own count: an armed trace
// times each morsel from the outside and books the fused loop as one
// operator pair — the scan op takes the per-morsel lanes, the group-by op
// the reduction totals.
func fastScanAggregate(p *pipe, v plan.Aggregate, opt par.Options, tr *obs.QueryTrace, aggIdx int) ([][]storage.Word, bool) {
	if len(p.stages) != 0 || p.complex != nil || p.useIndex || len(v.GroupBy) != 0 {
		return nil, false
	}
	type sumSlot struct {
		data   []storage.Word
		stride int
		off    int
	}
	var sums []sumSlot
	var sumIdx []int // aggregate position of each sum
	countPos := -1
	for i, spec := range v.Aggs {
		switch spec.Kind {
		case expr.Count:
			if countPos >= 0 {
				return nil, false
			}
			countPos = i
		case expr.Sum:
			col, ok := spec.Arg.(expr.Col)
			if !ok || col.Ty != storage.Int64 {
				return nil, false
			}
			if col.Attr >= len(p.loads) {
				return nil, false
			}
			l := p.loads[col.Attr]
			sums = append(sums, sumSlot{data: l.data, stride: l.stride, off: l.off})
			sumIdx = append(sumIdx, i)
		default:
			return nil, false
		}
	}

	// The generated-loop analogue, parameterized by row range so the same
	// kernel serves the serial loop and every morsel: specializations by
	// test count with the accumulation inlined. The four-sum case is the
	// paper's example query.
	accumulate := func(lo, hi int) ([]int64, int64) {
		accs := make([]int64, len(sums))
		var count int64
		switch {
		case len(p.baseTests) == 1 && len(sums) == 4:
			t := p.baseTests[0]
			s0, s1, s2, s3 := sums[0], sums[1], sums[2], sums[3]
			var a0, a1, a2, a3 int64
			for row := lo; row < hi; row++ {
				if passTest(&t, t.data[row*t.stride+t.off]) {
					count++
					if w := s0.data[row*s0.stride+s0.off]; w != storage.Null {
						a0 += storage.DecodeInt(w)
					}
					if w := s1.data[row*s1.stride+s1.off]; w != storage.Null {
						a1 += storage.DecodeInt(w)
					}
					if w := s2.data[row*s2.stride+s2.off]; w != storage.Null {
						a2 += storage.DecodeInt(w)
					}
					if w := s3.data[row*s3.stride+s3.off]; w != storage.Null {
						a3 += storage.DecodeInt(w)
					}
				}
			}
			accs[0], accs[1], accs[2], accs[3] = a0, a1, a2, a3
		default:
			for row := lo; row < hi; row++ {
				pass := true
				for i := range p.baseTests {
					t := &p.baseTests[i]
					if !passTest(t, t.data[row*t.stride+t.off]) {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				count++
				for i := range sums {
					s := &sums[i]
					if w := s.data[row*s.stride+s.off]; w != storage.Null {
						accs[i] += storage.DecodeInt(w)
					}
				}
			}
		}
		return accs, count
	}

	n := p.rel.Rows()
	var accs []int64
	var count int64
	aggStart := clock(tr)
	scanOp := tr.Op(p.srcOp)
	if opt.Parallel() {
		type partial struct {
			accs  []int64
			count int64
		}
		parts := make([]partial, opt.Morsels(n))
		par.Run(n, opt, func(w, m, lo, hi int) {
			start := clock(tr)
			a, cnt := accumulate(lo, hi)
			parts[m] = partial{accs: a, count: cnt}
			if tr != nil {
				addMorsel(scanOp, w, int64(hi-lo), cnt, since(start), stolen(opt, n, w, m))
			}
		})
		accs = make([]int64, len(sums))
		for _, pt := range parts {
			count += pt.count
			for i := range accs {
				accs[i] += pt.accs[i]
			}
		}
	} else {
		accs, count = accumulate(0, n)
		if tr != nil {
			addMorsel(scanOp, 0, int64(n), count, since(aggStart), false)
		}
	}
	tr.Op(aggIdx).Add(count, 1, since(aggStart))

	row := make([]storage.Word, len(v.Aggs))
	for i, pos := range sumIdx {
		row[pos] = storage.EncodeInt(accs[i])
	}
	if countPos >= 0 {
		row[countPos] = storage.EncodeInt(count)
	}
	return [][]storage.Word{row}, true
}

// argComp is one compiled aggregate argument: column references become
// register moves, computed expressions stay interpreted.
type argComp struct {
	isCol  bool
	srcReg int
	e      expr.Expr
}

// groupSink accumulates grouped aggregation state fed by a pipeline's emit
// stream. Sinks merge: the parallel path runs one sink per morsel and
// folds them together in morsel order, which reproduces the serial sink's
// group discovery order (a group's first morsel is its first row).
type groupSink struct {
	v     plan.Aggregate
	specs []expr.AggSpec
	args  []argComp

	keys   [][]storage.Word  // group id -> group key values
	states [][]expr.AggState // group id -> per-aggregate state
	ids1   map[storage.Word]int32
	idsN   map[exec.GroupKey]int32
}

func newGroupSink(v plan.Aggregate, specs []expr.AggSpec, args []argComp) *groupSink {
	s := &groupSink{v: v, specs: specs, args: args}
	switch len(v.GroupBy) {
	case 0:
	case 1:
		// Single-column grouping: a word-keyed map is several times
		// cheaper per tuple than the generic composite key.
		s.ids1 = map[storage.Word]int32{}
	default:
		s.idsN = map[exec.GroupKey]int32{}
	}
	return s
}

func (s *groupSink) newStates() []expr.AggState {
	st := make([]expr.AggState, len(s.specs))
	for i := range s.specs {
		st[i] = expr.NewAggState(s.specs[i])
	}
	return st
}

func (s *groupSink) addGroup(key []storage.Word) int32 {
	id := int32(len(s.states))
	s.keys = append(s.keys, key)
	s.states = append(s.states, s.newStates())
	return id
}

// groupOf locates (or creates) the tuple's group.
func (s *groupSink) groupOf(regs []storage.Word) int32 {
	switch len(s.v.GroupBy) {
	case 0:
		if len(s.states) == 0 {
			return s.addGroup(nil)
		}
		return 0
	case 1:
		k := regs[s.v.GroupBy[0]]
		id, ok := s.ids1[k]
		if !ok {
			id = s.addGroup([]storage.Word{k})
			s.ids1[k] = id
		}
		return id
	default:
		k := exec.MakeGroupKey(regs, s.v.GroupBy)
		id, ok := s.idsN[k]
		if !ok {
			key := make([]storage.Word, len(s.v.GroupBy))
			for i, pos := range s.v.GroupBy {
				key[i] = regs[pos]
			}
			id = s.addGroup(key)
			s.idsN[k] = id
		}
		return id
	}
}

// fold is the per-tuple path: one AddValue per aggregate with no
// expression walking for the common Sum(col)/Min(col)/Max(col) case.
func (s *groupSink) fold(regs []storage.Word) {
	st := s.states[s.groupOf(regs)]
	for i := range st {
		a := &s.args[i]
		switch {
		case s.v.Aggs[i].Arg == nil: // count(*)
			st[i].AddValue(0)
		case a.isCol:
			st[i].AddValue(regs[a.srcReg])
		default:
			st[i].AddValue(expr.EvalExpr(a.e, func(p int) storage.Word { return regs[p] }))
		}
	}
}

// lookupKey finds the receiver's group id for another sink's key, creating
// the group if new.
func (s *groupSink) lookupKey(key []storage.Word) int32 {
	switch len(s.v.GroupBy) {
	case 0:
		if len(s.states) == 0 {
			return s.addGroup(nil)
		}
		return 0
	case 1:
		k := key[0]
		id, ok := s.ids1[k]
		if !ok {
			id = s.addGroup(key)
			s.ids1[k] = id
		}
		return id
	default:
		var k exec.GroupKey
		copy(k[:], key)
		id, ok := s.idsN[k]
		if !ok {
			id = s.addGroup(key)
			s.idsN[k] = id
		}
		return id
	}
}

// merge folds o's groups into s in o's discovery order.
func (s *groupSink) merge(o *groupSink) {
	for g := range o.states {
		st := s.states[s.lookupKey(o.keys[g])]
		for i := range st {
			st[i].Merge(&o.states[g][i])
		}
	}
}

// rows materializes the groups in discovery order. An ungrouped aggregate
// over empty input still yields one row.
func (s *groupSink) rows() [][]storage.Word {
	if len(s.v.GroupBy) == 0 && len(s.states) == 0 {
		s.addGroup(nil)
	}
	rows := make([][]storage.Word, 0, len(s.states))
	for g := range s.states {
		row := make([]storage.Word, 0, len(s.keys[g])+len(s.v.Aggs))
		row = append(row, s.keys[g]...)
		for i := range s.states[g] {
			row = append(row, s.states[g][i].Result())
		}
		rows = append(rows, row)
	}
	return rows
}

// genericAggregate runs the pipeline into a grouped aggregation sink. The
// aggregate arguments are compiled once; under the morsel scheduler each
// morsel feeds its own sink and the sinks merge in morsel order, which is
// exact (and therefore enabled) only while no float sums are involved.
func genericAggregate(p *pipe, v plan.Aggregate, opt par.Options, tr *obs.QueryTrace, aggIdx int) [][]storage.Word {
	args := make([]argComp, len(v.Aggs))
	specs := make([]expr.AggSpec, len(v.Aggs))
	for i, spec := range v.Aggs {
		specs[i] = spec
		if spec.Arg == nil {
			continue
		}
		if col, ok := spec.Arg.(expr.Col); ok {
			args[i] = argComp{isCol: true, srcReg: col.Attr}
		} else {
			args[i] = argComp{e: spec.Arg}
			// Normalize the state's argument: the value arrives
			// pre-evaluated through AddValue.
			specs[i].Arg = expr.Col{Attr: 0, Ty: spec.Arg.Type()}
		}
	}

	start := clock(tr)
	var folded int64
	var rows [][]storage.Word
	if p.parallelizable(opt) && expr.MergeExact(v.Aggs) {
		n := p.rel.Rows()
		sinks := make([]*groupSink, opt.Morsels(n))
		pool := make([]*pipeWorker, opt.WorkerCount())
		var emitted atomic.Int64
		par.Run(n, opt, func(w, m, lo, hi int) {
			ws := p.worker(pool, w)
			ms := newGroupSink(v, specs, args)
			start := clock(tr)
			ws.pipe.runRange(lo, hi, ws.regs, ms.fold)
			sinks[m] = ms
			if tr != nil {
				emitted.Add(ws.pipe.flushCounts(tr, w, stolen(opt, n, w, m), start))
			}
		})
		total := newGroupSink(v, specs, args)
		for _, ms := range sinks {
			total.merge(ms)
		}
		folded, rows = emitted.Load(), total.rows()
	} else {
		sink := newGroupSink(v, specs, args)
		folded = p.runSerial(tr, sink.fold)
		rows = sink.rows()
	}
	tr.Op(aggIdx).Add(folded, int64(len(rows)), since(start))
	return rows
}
