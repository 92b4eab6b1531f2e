package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels attach dimensions to a metric instance ({outcome="ok"}).
type Labels map[string]string

// Registry groups metric families (one HELP/TYPE header per name, any
// number of label-set instances under it) and renders them in Prometheus
// text exposition format or as one JSON object. Registration is cheap
// but locked; reads of the registered collectors are lock-free.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

type family struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	inst []*instance
}

type instance struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() float64 // every gauge's value, and a CounterFunc's
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Counter registers (or returns the already-registered) counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	in := r.register(name, help, "counter", labels, func() *instance { return &instance{c: &Counter{}} })
	return in.c
}

// Gauge registers (or returns the already-registered) gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	in := r.register(name, help, "gauge", labels, func() *instance {
		g := &Gauge{}
		return &instance{g: g, fn: g.Value}
	})
	return in.g
}

// CounterFunc registers a counter whose value is pulled from fn at
// scrape time — for counts another package keeps (the core's reclaimed
// versions, the pool's busy time), which a second variable would only
// duplicate.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "counter", labels, func() *instance { return &instance{fn: fn} })
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", labels, func() *instance { return &instance{fn: fn} })
}

// Info registers a gauge that is constantly 1 and carries its payload in
// the labels — the Prometheus idiom for static metadata such as
// build/version info (foo_build_info{version="1.2",goversion="go1.x"} 1).
func (r *Registry) Info(name, help string, labels Labels) {
	r.GaugeFunc(name, help, labels, func() float64 { return 1 })
}

// Histogram registers (or returns the already-registered) histogram over
// the given upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	in := r.register(name, help, "histogram", labels, func() *instance { return &instance{h: NewHistogram(buckets)} })
	return in.h
}

// register finds or creates the family and the label-set instance.
// Re-registering the same (name, labels) returns the existing collector;
// re-registering a name under a different kind panics — that is a
// programming error the first scrape would otherwise render as garbage.
func (r *Registry) register(name, help, kind string, labels Labels, mk func() *instance) *instance {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	for _, in := range f.inst {
		if in.labels == ls {
			return in
		}
	}
	in := mk()
	in.labels = ls
	f.inst = append(f.inst, in)
	return in
}

// renderLabels produces the canonical {k="v",...} form, keys sorted.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// visit walks the families in registration order, each with a copy of
// its instances taken under the lock; fn runs unlocked, so a collector
// that reads other state never blocks registration. Both renderings go
// through it, so they always cover the same series.
func (r *Registry) visit(fn func(f *family, inst []*instance)) {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	for _, f := range fams {
		r.mu.Lock()
		inst := append([]*instance(nil), f.inst...)
		r.mu.Unlock()
		fn(f, inst)
	}
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4): # HELP and # TYPE headers, then one line per
// sample; histograms expand to cumulative _bucket{le=...} series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.visit(func(f *family, inst []*instance) {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, in := range inst {
			switch {
			case in.h != nil:
				writeHistogram(bw, f.name, in.labels, in.h)
			case in.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, in.labels, in.c.Value())
			default:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, in.labels, formatFloat(in.fn()))
			}
		}
	})
	return bw.Flush()
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	bounds, cumulative, count, sum := h.snapshot()
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLe(labels, formatFloat(b)), cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLe(labels, "+Inf"), cumulative[len(cumulative)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// WriteJSON renders the same series as WritePrometheus as one JSON
// object, keyed by the exposition's series name
// (db_queries_total{outcome="ok"}). A counter or gauge maps to a number,
// a histogram to {"count","sum","p50","p95","p99"} with quantiles
// estimated as HistogramSnapshot.Quantile does. Values JSON cannot carry
// (NaN, ±Inf) render as null.
func (r *Registry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteByte('{')
	sep := "\n"
	r.visit(func(f *family, inst []*instance) {
		for _, in := range inst {
			key, _ := json.Marshal(f.name + in.labels) // a string always marshals
			fmt.Fprintf(bw, "%s%s: ", sep, key)
			sep = ",\n"
			switch {
			case in.h != nil:
				s := in.h.Snapshot()
				fmt.Fprintf(bw, `{"count": %d, "sum": %s, "p50": %s, "p95": %s, "p99": %s}`, s.Count,
					jsonFloat(s.Sum), jsonFloat(s.Quantile(0.5)), jsonFloat(s.Quantile(0.95)), jsonFloat(s.Quantile(0.99)))
			case in.c != nil:
				fmt.Fprintf(bw, "%d", in.c.Value())
			default:
				bw.WriteString(jsonFloat(in.fn()))
			}
		}
	})
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// jsonFloat formats v as a JSON number, or null when JSON cannot carry it.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return formatFloat(v)
}

// mergeLe splices le="bound" into an existing (possibly empty) label set.
func mergeLe(labels, bound string) string {
	if labels == "" {
		return `{le="` + bound + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + bound + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics in text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
