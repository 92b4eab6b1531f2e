// Package obs is the observability core of the serving stack: a
// dependency-free metrics library (atomic counters, gauges and
// fixed-bucket latency histograms with a lock-free Observe, exposed in
// Prometheus text format and as one JSON object) plus the per-query
// execution trace that the engines fill in when a query runs under
// EXPLAIN ANALYZE.
//
// The package sits below every other subsystem — service, persist, repl
// and the execution engines all import it — so it imports nothing of the
// repository and nothing beyond the standard library.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds, spanning 100µs
// (a cached point query) to 10s (a full-table sort under load).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with a lock-free Observe: bucket
// counts are atomic adds, the running sum is a CAS loop over the float64
// bit pattern. Bucket bounds are upper bounds (Prometheus "le"
// semantics); an implicit +Inf bucket catches the rest. The total count
// is the bucket total, never a separate counter, so a snapshot's count
// always equals its +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil means DefBuckets). Registry.Histogram is the usual constructor.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Safe for concurrent use; no locks taken.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is the bucket (le semantics); misses land on +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf total, taken bucket-by-bucket. The count is that +Inf total, so
// _count and le="+Inf" agree however many Observes race the read; only
// the sum may be a few observations ahead of or behind them.
func (h *Histogram) snapshot() (bounds []float64, cumulative []int64, count int64, sum float64) {
	cumulative = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return h.bounds, cumulative, running, h.Sum()
}

// HistogramSnapshot is a point-in-time copy of a histogram's cumulative
// bucket counts — the input to quantile estimation, and (via Sub) to
// interval quantiles between two samples of the same histogram.
type HistogramSnapshot struct {
	Bounds     []float64 // ascending upper bounds (le semantics)
	Cumulative []int64   // len(Bounds)+1; last entry is the +Inf total
	Count      int64
	Sum        float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	bounds, cumulative, count, sum := h.snapshot()
	return HistogramSnapshot{Bounds: bounds, Cumulative: cumulative, Count: count, Sum: sum}
}

// Sub returns the observations recorded after prev — the per-interval
// histogram between two snapshots of the same collector. Bounds are
// shared, not copied; a prev from a different histogram shape returns
// the receiver unchanged.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Cumulative) != len(s.Cumulative) {
		return s
	}
	d := HistogramSnapshot{
		Bounds:     s.Bounds,
		Cumulative: make([]int64, len(s.Cumulative)),
		Count:      s.Count - prev.Count,
		Sum:        s.Sum - prev.Sum,
	}
	for i := range s.Cumulative {
		d.Cumulative[i] = s.Cumulative[i] - prev.Cumulative[i]
	}
	return d
}

// Quantile estimates the q-quantile (0 <= q <= 1) with the standard
// Prometheus histogram_quantile interpolation: the target rank lands in
// one bucket and the estimate interpolates linearly between that
// bucket's bounds, assuming observations spread uniformly inside it.
// Ranks in the +Inf bucket clamp to the highest finite bound; an empty
// snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Cumulative) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	i := 0
	for i < len(s.Cumulative) && float64(s.Cumulative[i]) < rank {
		i++
	}
	if i >= len(s.Bounds) {
		// +Inf bucket: no upper bound to interpolate toward.
		if len(s.Bounds) == 0 {
			return 0
		}
		return s.Bounds[len(s.Bounds)-1]
	}
	lower := 0.0
	prevCum := int64(0)
	if i > 0 {
		lower = s.Bounds[i-1]
		prevCum = s.Cumulative[i-1]
	}
	upper := s.Bounds[i]
	inBucket := s.Cumulative[i] - prevCum
	if inBucket <= 0 {
		return upper
	}
	return lower + (upper-lower)*(rank-float64(prevCum))/float64(inBucket)
}
