package jit

import (
	"slices"

	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The scan-aggregate kernel serves counts and int64 column sums, ungrouped
// or grouped on one dictionary-coded column, over a bare base-table scan:
// the paper's example query and every Figure 3 cell. Every pipe filters a
// chunk at a time into a selection vector (pipe.filter); where the pipe
// loops then fold each passing row into an aggregate sink, the kernel runs
// each aggregate as one loop over the selection (or over the contiguous
// rows when all passed). A group's slot is its dictionary code plus one, so
// Null wraps to slot 0; merging each morsel's first-touched slots in morsel
// order reproduces genericAggregate's group order.

const maxDictGroups = 4096 // larger dictionaries group in genericAggregate

// scanAgg is a compiled scan-aggregate kernel.
type scanAgg struct {
	p    *pipe
	sums []load // the summed columns
	outs []int  // per aggregate: -1 for a count, else its index in sums
	key  *load  // the group key; nil when ungrouped
}

// compileScanAgg returns the kernel for v over p, or nil outside its contract.
func compileScanAgg(p *pipe, v plan.Aggregate) *scanAgg {
	if len(p.stages) != 0 || p.complex != nil || p.useIndex || len(v.GroupBy) > 1 {
		return nil
	}
	k := &scanAgg{p: p, outs: make([]int, len(v.Aggs))}
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

// aggWorker is one worker's kernel state: the accumulators its morsels fold
// into (counts and integer sums merge exactly), and per-chunk scratch.
type aggWorker struct {
	acc   []int64 // slot g's count at [g], its sum i at [(i+1)*slots+g]
	stamp []int32 // morsel+1 of the slot's last touch
	sel   []int32 // the chunk's passing rows
	slot  []int32 // the group slot of each passing row
}

// morselRun is one morsel's outcome, booked only once no morsel met a bad
// key: genericAggregate, which then runs instead, books its own.
type morselRun struct {
	w                   int
	rows, passed, nanos int64
	first               []int32 // the slots the morsel touched first, in row order
	bad                 bool
}

// run executes the kernel. It reports false, having booked nothing, when
// the dictionary, read here because inserts grow it, has passed
// maxDictGroups, or a key is bad: neither Null nor a code, as an insert of
// a raw word can store. A trace books what the pipe loops book.
func (k *scanAgg) run(opt par.Options, tr *obs.QueryTrace, aggIdx int) ([][]storage.Word, bool) {
	slots := 1
	if k.key != nil {
		if slots = k.key.dict.Len() + 1; slots > maxDictGroups+1 {
			return nil, false
		}
	}
	workers, morsels := k.p.shape(opt)
	start, n, pool, runs := clock(tr), k.p.rel.Rows(), make([]*aggWorker, workers), make([]morselRun, morsels)
	body := func(w, m, lo, hi int) {
		if pool[w] == nil {
			pool[w] = &aggWorker{acc: make([]int64, slots*(1+len(k.sums))), stamp: make([]int32, slots),
				sel: make([]int32, chunkRows), slot: make([]int32, chunkRows)}
		}
		mstart := clock(tr)
		runs[m] = k.morsel(pool[w], m, lo, hi)
		runs[m].w, runs[m].rows, runs[m].nanos = w, int64(hi-lo), since(mstart)
	}
	if workers == 1 {
		body(0, 0, 0, n)
	} else {
		par.Run(n, opt, body)
	}
	if slices.ContainsFunc(runs, func(r morselRun) bool { return r.bad }) {
		return nil, false
	}

	acc, order, seen, scanOp := make([]int64, slots*(1+len(k.sums))), []int32{0}, make([]bool, slots), tr.Op(k.p.srcOp)
	for _, ws := range pool {
		for i := 0; ws != nil && i < len(acc); i++ {
			acc[i] += ws.acc[i]
		}
	}
	if k.key != nil {
		order = order[:0]
	}
	for m, r := range runs {
		if tr != nil {
			addMorsel(scanOp, r.w, r.rows, r.passed, r.nanos, stolen(opt, n, r.w, m))
		}
		for _, g := range r.first {
			if !seen[g] {
				seen[g] = true
				order = append(order, g)
			}
		}
	}
	var folded int64
	rows := make([][]storage.Word, len(order))
	for j, g := range order {
		row := make([]storage.Word, 0, 1+len(k.outs))
		if k.key != nil {
			row = append(row, storage.Word(g)-1) // slot 0 wraps back to Null
		}
		for _, o := range k.outs {
			row = append(row, storage.EncodeInt(acc[(o+1)*slots+int(g)]))
		}
		rows[j], folded = row, folded+acc[g]
	}
	tr.Op(aggIdx).Add(folded, int64(len(rows)), since(start))
	return rows, true
}

// morsel runs morsel m, rows [lo, hi), chunk by chunk into ws.
func (k *scanAgg) morsel(ws *aggWorker, m, lo, hi int) (r morselRun) {
	slots := len(ws.stamp)
	for c := lo; c < hi; c += chunkRows {
		p := k.p.filter(c, min(c+chunkRows, hi), ws.sel)
		if p.n == 0 {
			continue
		}
		r.passed += int64(p.n)
		if k.key == nil {
			ws.acc[0] += int64(p.n)
			i := 0
			for ; i+4 <= len(k.sums); i += 4 {
				sumRows4(k.sums[i:i+4], p, ws.acc[i+1:i+5])
			}
			for ; i < len(k.sums); i++ {
				ws.acc[i+1] += sumRows(&k.sums[i], p)
			}
			continue
		}
		slot := ws.slot[:p.n]
		if r.first, r.bad = k.slotRows(ws, int32(m+1), p, slot, r.first); r.bad {
			return r
		}
		for i := range k.sums {
			sumSlots(&k.sums[i], p, slot, ws.acc[(i+1)*slots:(i+2)*slots])
		}
	}
	return r
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

// slotRows writes and counts each passing row's group slot, appending to
// first the slots morsel stamp touches first. It stops at a bad key.
func (k *scanAgg) slotRows(ws *aggWorker, stamp int32, p passing, slot, first []int32) (_ []int32, bad bool) {
	d, s, slots := k.key.data[k.key.off:], k.key.stride, storage.Word(len(ws.stamp))
	for i := range slot {
		w := d[p.row(i)*s] + 1
		if w >= slots {
			return first, true
		}
		g := int32(w)
		slot[i] = g
		ws.acc[g]++
		if ws.stamp[g] != stamp {
			ws.stamp[g] = stamp
			first = append(first, g)
		}
	}
	return first, false
}

// sumSlots adds one column over the passing rows to their slots in acc.
func sumSlots(l *load, p passing, slot []int32, acc []int64) {
	d, s := l.data[l.off:], l.stride
	for i, g := range slot {
		acc[g] += intOf(d[p.row(i)*s])
	}
}
