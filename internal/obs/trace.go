package obs

import "sync/atomic"

// QueryTrace is one query execution's operator-level account: the jit
// engine threads a trace through execution and each operator adds the
// rows it consumed, the rows it produced, and the wall time of the fused
// loop that evaluated it. Morsel-driven operators additionally fill
// per-worker lanes — rows, nanos, morsels claimed and morsels stolen per
// worker — which is the raw signal the layout advisor needs (per-operator
// access frequencies) and what EXPLAIN ANALYZE renders.
//
// A nil *QueryTrace disarms tracing. Armed or not, an execution runs the
// same counting loops; only an armed one reads the clock and flushes its
// counts here, once per morsel or pipeline breaker, never per row.
type QueryTrace struct {
	ops []*OpTrace

	// Epoch is the MVCC catalog version the query executed against —
	// the service fills it when it pins the snapshot, and EXPLAIN
	// ANALYZE surfaces it so a result can be tied to the exact version
	// that produced it.
	Epoch uint64
}

// OpProto is the compile-time descriptor of one operator: its kind, a
// short detail string and its depth in the plan tree (pre-order: a
// parent precedes its children, depth increases downward). Static protos
// carry measurements taken at prepare time — the jit engine's hash-join
// build side executes when the plan compiles, so cached-plan executions
// report its recorded cost instead of re-observing it.
type OpProto struct {
	Op     string
	Detail string
	Depth  int

	Static  bool // measured at prepare/compile time, shared by executions
	RowsIn  int64
	RowsOut int64
	Nanos   int64
}

// NewTrace instantiates a trace from compile-time op descriptors, with
// per-worker lanes sized for the given worker count.
func NewTrace(protos []OpProto, workers int) *QueryTrace {
	if workers < 1 {
		workers = 1
	}
	t := &QueryTrace{ops: make([]*OpTrace, len(protos))}
	for i, p := range protos {
		o := &OpTrace{proto: p, lanes: make([]Lane, workers)}
		if p.Static {
			o.rowsIn.Store(p.RowsIn)
			o.rowsOut.Store(p.RowsOut)
			o.nanos.Store(p.Nanos)
		}
		t.ops[i] = o
	}
	return t
}

// Op returns the i-th operator accumulator (nil when out of range, so
// engines can pass -1 for "not traced").
func (t *QueryTrace) Op(i int) *OpTrace {
	if t == nil || i < 0 || i >= len(t.ops) {
		return nil
	}
	return t.ops[i]
}

// OpTrace accumulates one operator's execution counts. Totals are
// atomic (morsel workers flush concurrently); lanes are plain — lane w
// is only ever written by worker w, and the scheduler's completion
// barrier orders those writes before the trace is read.
type OpTrace struct {
	proto   OpProto
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	nanos   atomic.Int64
	lanes   []Lane
}

// Lane is one worker's share of a morsel-driven operator: rows emitted,
// busy nanos, morsels claimed, and how many of those were stolen
// (claimed by this worker although a static block partitioning would
// have assigned them elsewhere). The trailing padding keeps adjacent
// workers' lanes off the same cache line while the trace is armed.
type Lane struct {
	Rows    int64
	Nanos   int64
	Morsels int64
	Stolen  int64
	_       [4]int64
}

// Add accumulates totals on the operator.
func (o *OpTrace) Add(rowsIn, rowsOut, nanos int64) {
	if o == nil {
		return
	}
	o.rowsIn.Add(rowsIn)
	o.rowsOut.Add(rowsOut)
	o.nanos.Add(nanos)
}

// Lane returns worker w's lane (nil when o is nil or w out of range).
func (o *OpTrace) Lane(w int) *Lane {
	if o == nil || w < 0 || w >= len(o.lanes) {
		return nil
	}
	return &o.lanes[w]
}

// OpReport is the JSON rendering of one traced operator.
type OpReport struct {
	Op      string       `json:"op"`
	Detail  string       `json:"detail,omitempty"`
	Depth   int          `json:"depth"`
	RowsIn  int64        `json:"rowsIn"`
	RowsOut int64        `json:"rowsOut"`
	Nanos   int64        `json:"nanos"`
	Static  bool         `json:"atPrepare,omitempty"`
	Workers []LaneReport `json:"workers,omitempty"`
}

// LaneReport is one worker's lane in the rendered trace.
type LaneReport struct {
	Worker  int   `json:"worker"`
	Rows    int64 `json:"rows"`
	Nanos   int64 `json:"nanos"`
	Morsels int64 `json:"morsels"`
	Stolen  int64 `json:"stolen"`
}

// Report renders the trace in plan pre-order. Lanes that saw no work are
// omitted.
func (t *QueryTrace) Report() []OpReport {
	if t == nil {
		return nil
	}
	out := make([]OpReport, 0, len(t.ops))
	for _, o := range t.ops {
		r := OpReport{
			Op:      o.proto.Op,
			Detail:  o.proto.Detail,
			Depth:   o.proto.Depth,
			RowsIn:  o.rowsIn.Load(),
			RowsOut: o.rowsOut.Load(),
			Nanos:   o.nanos.Load(),
			Static:  o.proto.Static,
		}
		for w := range o.lanes {
			l := &o.lanes[w]
			if l.Rows == 0 && l.Nanos == 0 && l.Morsels == 0 {
				continue
			}
			r.Workers = append(r.Workers, LaneReport{
				Worker: w, Rows: l.Rows, Nanos: l.Nanos, Morsels: l.Morsels, Stolen: l.Stolen,
			})
		}
		out = append(out, r)
	}
	return out
}
