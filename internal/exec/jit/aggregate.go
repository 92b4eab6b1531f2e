package jit

import (
	"repro/internal/exec"
	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

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
	block  []storage.Word // the register block a stage-free pipe's rows are gathered into
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

// groupOf locates (or creates) the group whose key sits at positions pos
// of regs: a tuple's registers at GroupBy, or another sink's key.
func (s *groupSink) groupOf(regs []storage.Word, pos []int) int32 {
	switch len(pos) {
	case 0:
		if len(s.states) == 0 {
			return s.addGroup(nil)
		}
		return 0
	case 1:
		k := regs[pos[0]]
		id, ok := s.ids1[k]
		if !ok {
			id = s.addGroup([]storage.Word{k})
			s.ids1[k] = id
		}
		return id
	default:
		k := exec.MakeGroupKey(regs, pos)
		id, ok := s.idsN[k]
		if !ok {
			key := make([]storage.Word, len(pos))
			for i, p := range pos {
				key[i] = regs[p]
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
	st := s.states[s.groupOf(regs, s.v.GroupBy)]
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

// merge folds o's groups into s in o's discovery order.
func (s *groupSink) merge(o *groupSink) {
	pos := make([]int, len(s.v.GroupBy))
	for i := range pos {
		pos[i] = i
	}
	for g := range o.states {
		st := s.states[s.groupOf(o.keys[g], pos)]
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

// genericAggregate runs the pipeline into grouped aggregation sinks. The
// aggregate arguments are compiled once; each morsel feeds its own sink and
// the sinks merge in morsel order, which is exact only while no float sums
// are involved, so those run as one morsel.
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

	if !expr.MergeExact(v.Aggs) {
		opt = par.Serial() // float sums fold in row order, into one sink
	}
	_, morsels := p.shape(opt)
	sinks := make(groupSinks, max(morsels, 1)) // an empty table's ungrouped row comes from sinks[0]
	for m := range sinks {
		sinks[m] = newGroupSink(v, specs, args)
	}
	start := clock(tr)
	folded := p.run(opt, tr, sinks)
	for _, ms := range sinks[1:] {
		sinks[0].merge(ms)
	}
	rows := sinks[0].rows()
	tr.Op(aggIdx).Add(folded, int64(len(rows)), since(start))
	return rows
}

// groupSinks is genericAggregate's sink: one groupSink per morsel.
type groupSinks []*groupSink

func (s groupSinks) emit(_, m int, regs []storage.Word) { s[m].fold(regs) }

func (s groupSinks) emitRows(_, m int, b batch) {
	for regs := range b.gathered(&s[m].block) {
		s[m].fold(regs)
	}
}
