package jit

import (
	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The scan-aggregate kernel serves counts and int64 column sums, ungrouped
// or grouped on one dictionary-coded column, over a range scan without
// stages: the paper's example query and every Figure 3 cell. As a sink of
// pipe.run it folds each chunk's passing rows from the table, one loop per
// aggregate. A group's slot is its dictionary code plus one, so Null wraps
// to slot 0; merging each morsel's first-touched slots in morsel order
// reproduces genericAggregate's group order.

const maxDictGroups = 4096 // larger dictionaries group in genericAggregate

// scanAgg is a compiled scan-aggregate kernel; an execution runs a copy.
type scanAgg struct {
	p    *pipe
	v    plan.Aggregate
	sums []load // the summed columns
	outs []int  // per aggregate: -1 for a count, else its index in sums
	key  *load  // the group key; nil when ungrouped

	slots   int
	workers []*aggWorker
	first   [][]int32 // per morsel, its first-touched slots: written rarely, as neighbours run at once
}

// compileScanAgg returns the kernel for v over p, or nil outside its
// contract, which leaves out index lookups: too few rows to pay for slots.
func compileScanAgg(p *pipe, v plan.Aggregate) *scanAgg {
	if len(p.stages) != 0 || p.useIndex || len(v.GroupBy) > 1 {
		return nil
	}
	k := &scanAgg{p: p, v: v, outs: make([]int, len(v.Aggs))}
	if len(v.GroupBy) == 1 {
		if k.key = &p.loads[v.GroupBy[0]]; k.key.dict == nil {
			return nil
		}
	}
	for i, spec := range v.Aggs {
		col, isCol := spec.Arg.(expr.Col)
		switch {
		case spec.Kind == expr.Count && (spec.Arg == nil || isCol):
			k.outs[i] = -1
		case spec.Kind == expr.Sum && isCol && col.Ty == storage.Int64:
			k.outs[i] = len(k.sums)
			k.sums = append(k.sums, p.loads[col.Attr])
		default:
			return nil
		}
	}
	return k
}

// aggWorker is one worker's accumulators (counts and integer sums merge
// exactly) and per-chunk scratch.
type aggWorker struct {
	acc   []int64 // slot g's count at [g], its sum i at [(i+1)*slots+g]
	stamp []int32 // morsel+1 of the slot's last touch
	slot  []int32 // the group slot of each passing row
	bad   bool    // met a key that is neither Null nor a code
}

// run executes the kernel and reports whether it served the aggregate.
// Past maxDictGroups (read here, as inserts grow the dictionary)
// genericAggregate runs instead. A bad key, which an insert of a raw word
// can store, stops its worker folding while the run counts on; then
// genericAggregate folds again untraced, so the trace books each op once.
func (k *scanAgg) run(opt par.Options, tr *obs.QueryTrace, aggIdx int) ([][]storage.Word, bool) {
	s, start := *k, clock(tr)
	if s.slots = 1; k.key != nil {
		if s.slots = k.key.dict.Len() + 1; s.slots > maxDictGroups+1 {
			return genericAggregate(k.p, k.v, opt, tr, aggIdx), false
		}
	}
	workers, morsels := k.p.shape(opt)
	s.workers, s.first = make([]*aggWorker, workers), make([][]int32, max(morsels, 1))
	if k.key == nil {
		s.first[0] = []int32{0} // the one row, even over an empty table
	}
	folded := k.p.run(opt, tr, &s)
	rows, served := s.rows()
	if !served {
		rows = genericAggregate(k.p, k.v, opt, nil, -1)
	}
	tr.Op(aggIdx).Add(folded, int64(len(rows)), since(start))
	return rows, served
}

// emitRows folds a chunk's passing rows into worker w's accumulators.
func (k *scanAgg) emitRows(w, m int, b batch) {
	ws := k.workers[w]
	if ws == nil { // allocated by its worker, off the other workers' cache lines
		ws = &aggWorker{acc: make([]int64, k.slots*(1+len(k.sums))), stamp: make([]int32, k.slots), slot: make([]int32, chunkRows)}
		k.workers[w] = ws
	}
	if k.key == nil {
		ws.acc[0] += int64(b.n)
		i := 0
		for ; i+4 <= len(k.sums); i += 4 {
			sumRows4(k.sums[i:i+4], b.passing, ws.acc[i+1:i+5])
		}
		for ; i < len(k.sums); i++ {
			ws.acc[i+1] += sumRows(&k.sums[i], b.passing)
		}
		return
	}
	if ws.bad {
		return
	}
	slot := ws.slot[:b.n]
	if ws.bad = k.slotRows(ws, m, b.passing, slot); ws.bad {
		return
	}
	for i := range k.sums {
		sumSlots(&k.sums[i], b.passing, slot, ws.acc[(i+1)*k.slots:(i+2)*k.slots])
	}
}

// rows merges the workers' accumulators into the result rows, groups in
// order of first touch, or reports false when a worker met a bad key.
func (k *scanAgg) rows() ([][]storage.Word, bool) {
	acc, order, seen := make([]int64, k.slots*(1+len(k.sums))), []int32(nil), make([]bool, k.slots)
	for _, ws := range k.workers {
		if ws != nil && ws.bad {
			return nil, false
		}
		for i := 0; ws != nil && i < len(acc); i++ {
			acc[i] += ws.acc[i]
		}
	}
	for _, first := range k.first {
		for _, g := range first {
			if !seen[g] {
				seen[g] = true
				order = append(order, g)
			}
		}
	}
	rows := make([][]storage.Word, len(order))
	for j, g := range order {
		row := make([]storage.Word, 0, 1+len(k.outs))
		if k.key != nil {
			row = append(row, storage.Word(g)-1) // slot 0 wraps back to Null
		}
		for _, o := range k.outs {
			row = append(row, storage.EncodeInt(acc[(o+1)*k.slots+int(g)]))
		}
		rows[j] = row
	}
	return rows, true
}

// quarter returns the i-th row of each quarter of the first 4q passing rows,
// q = n/4. One stream through a wide partition outruns the hardware
// prefetcher; the sums walk four together to keep enough lines in flight.
func (p passing) quarter(i, q int) (int, int, int, int) {
	if p.sel == nil {
		return p.lo + i, p.lo + q + i, p.lo + 2*q + i, p.lo + 3*q + i
	}
	return int(p.sel[i]), int(p.sel[q+i]), int(p.sel[2*q+i]), int(p.sel[3*q+i])
}

// sumRows4 adds four columns over the passing rows to acc[0:4] in one pass,
// reading once a partition that holds all four (the paper's PDSM).
func sumRows4(l []load, p passing, acc []int64) {
	d0, d1, d2, d3 := l[0].data[l[0].off:], l[1].data[l[1].off:], l[2].data[l[2].off:], l[3].data[l[3].off:]
	s0, s1, s2, s3 := l[0].stride, l[1].stride, l[2].stride, l[3].stride
	var a0, a1, a2, a3 int64
	q := p.n / 4
	for i := 0; i < q; i++ {
		r0, r1, r2, r3 := p.quarter(i, q)
		a0 += intOf(d0[r0*s0]) + intOf(d0[r1*s0]) + intOf(d0[r2*s0]) + intOf(d0[r3*s0])
		a1 += intOf(d1[r0*s1]) + intOf(d1[r1*s1]) + intOf(d1[r2*s1]) + intOf(d1[r3*s1])
		a2 += intOf(d2[r0*s2]) + intOf(d2[r1*s2]) + intOf(d2[r2*s2]) + intOf(d2[r3*s2])
		a3 += intOf(d3[r0*s3]) + intOf(d3[r1*s3]) + intOf(d3[r2*s3]) + intOf(d3[r3*s3])
	}
	for i := 4 * q; i < p.n; i++ {
		r := p.row(i)
		a0, a1, a2, a3 = a0+intOf(d0[r*s0]), a1+intOf(d1[r*s1]), a2+intOf(d2[r*s2]), a3+intOf(d3[r*s3])
	}
	acc[0], acc[1], acc[2], acc[3] = acc[0]+a0, acc[1]+a1, acc[2]+a2, acc[3]+a3
}

// sumRows sums one column's values over the passing rows.
func sumRows(l *load, p passing) (a int64) {
	d, s := l.data[l.off:], l.stride
	q := p.n / 4
	for i := 0; i < q; i++ {
		r0, r1, r2, r3 := p.quarter(i, q)
		a += intOf(d[r0*s]) + intOf(d[r1*s]) + intOf(d[r2*s]) + intOf(d[r3*s])
	}
	for i := 4 * q; i < p.n; i++ {
		a += intOf(d[p.row(i)*s])
	}
	return a
}

// intOf is a summand: the integer a word encodes, 0 for Null.
func intOf(w storage.Word) int64 {
	if w == storage.Null {
		return 0
	}
	return storage.DecodeInt(w)
}

// slotRows writes and counts each passing row's group slot and appends to
// first[m] the slots morsel m touches first. It stops at a bad key.
func (k *scanAgg) slotRows(ws *aggWorker, m int, p passing, slot []int32) (bad bool) {
	d, s, slots, stamp := k.key.data[k.key.off:], k.key.stride, storage.Word(len(ws.stamp)), int32(m+1)
	for i := range slot {
		w := d[p.row(i)*s] + 1
		if w >= slots {
			return true
		}
		g := int32(w)
		slot[i] = g
		ws.acc[g]++
		if ws.stamp[g] != stamp {
			ws.stamp[g] = stamp
			k.first[m] = append(k.first[m], g)
		}
	}
	return false
}

// sumSlots adds one column over the passing rows to their slots in acc.
func sumSlots(l *load, p passing, slot []int32, acc []int64) {
	d, s := l.data[l.off:], l.stride
	for i, g := range slot {
		acc[g] += intOf(d[p.row(i)*s])
	}
}
