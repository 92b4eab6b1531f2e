package workload

import (
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/plan"
)

// Capture is the always-on workload telemetry sink: per-table, per-column
// atomic access counters plus a bounded ring of recent plan shapes with
// execution frequencies. The design splits the cost asymmetrically —
// Resolve (called once per plan compilation, or per request on the
// uncached vector path) takes locks and allocates, while Record (called
// once per execution) is a handful of atomic adds against pointers the
// Footprint precomputed. That keeps the hot path near-free, so capture
// can stay on for every query the service runs.
type Capture struct {
	mu     sync.RWMutex
	tables map[string]*TableCounters
	order  []string

	shapes shapeRing
}

// DefaultShapeCap bounds the shape ring when NewCapture is given 0: large
// enough for any hand-written mix, small enough that a shape-churning
// client (distinct plan structures, not just distinct constants — those
// normalize together) cannot grow capture memory without bound.
const DefaultShapeCap = 256

// NewCapture returns an empty capture whose shape ring holds up to
// shapeCap distinct normalized plan shapes (0 means DefaultShapeCap).
func NewCapture(shapeCap int) *Capture {
	if shapeCap <= 0 {
		shapeCap = DefaultShapeCap
	}
	return &Capture{
		tables: map[string]*TableCounters{},
		shapes: shapeRing{cap: shapeCap, m: map[string]*ShapeEntry{}},
	}
}

// TableCounters holds one table's access tally: executions that scanned
// it, rows those scans covered, and per-attribute read counts. All fields
// are bumped atomically through Footprint.Record; readers snapshot
// without stopping writers.
type TableCounters struct {
	name  string
	names []string // attribute names at registration
	execs atomic.Int64
	rows  atomic.Int64
	cols  []atomic.Int64 // one per attribute position
}

// Width returns the number of attribute positions tracked.
func (t *TableCounters) Width() int { return len(t.cols) }

// ColName returns the attribute name recorded at registration.
func (t *TableCounters) ColName(attr int) string { return t.names[attr] }

// ColReads returns the number of executions that read the attribute.
func (t *TableCounters) ColReads(attr int) int64 { return t.cols[attr].Load() }

// Execs returns the number of executions that scanned the table.
func (t *TableCounters) Execs() int64 { return t.execs.Load() }

// RowsScanned returns the total rows those executions covered.
func (t *TableCounters) RowsScanned() int64 { return t.rows.Load() }

// Footprint is the precomputed per-plan capture handle: direct pointers
// into the counters every execution bumps. Resolve builds it once at
// plan-compile time; Record is the only method on the hot path. A nil
// Footprint records nothing, so callers need no guard for plans that
// failed validation.
type Footprint struct {
	tables []footprintTable
	shape  *ShapeEntry
}

type footprintTable struct {
	t    *TableCounters
	cols []*atomic.Int64
	rows int64
}

// Record accounts one execution of the plan: one shape-frequency add, and
// per scanned table one execution add, one rows-scanned add, and one add
// per attribute read. No locks, no allocation, no map lookups — every
// target pointer was resolved at compile time.
func (f *Footprint) Record() {
	if f == nil {
		return
	}
	if f.shape != nil {
		f.shape.count.Add(1)
	}
	for i := range f.tables {
		ft := &f.tables[i]
		ft.t.execs.Add(1)
		ft.t.rows.Add(ft.rows)
		for _, c := range ft.cols {
			c.Add(1)
		}
	}
}

// Resolve turns a plan's compile-time access list into a Footprint and
// registers the plan's normalized shape in the ring. shapeKey identifies
// the shape (the service passes its cache digest); sample is a concrete
// representative plan — with constants intact, because Normalize zeroes
// them and selectivity estimation needs real values — that Mix hands to
// the optimizer; shapeJSON is the normalized encoding kept for display.
// Tables are registered on first sight with the attribute names from cat.
func (c *Capture) Resolve(cat *plan.Catalog, accs []exec.TableAccess, shapeKey string, shapeJSON []byte, sample plan.Node) *Footprint {
	fp := &Footprint{shape: c.shapes.entry(shapeKey, shapeJSON, sample)}
	for _, acc := range accs {
		if !cat.Has(acc.Table) {
			continue
		}
		tc := c.table(cat, acc.Table)
		ft := footprintTable{t: tc, rows: acc.Rows}
		for _, a := range acc.Attrs {
			if a >= 0 && a < len(tc.cols) {
				ft.cols = append(ft.cols, &tc.cols[a])
			}
		}
		fp.tables = append(fp.tables, ft)
	}
	return fp
}

// table returns the counters for name, registering them on first sight.
func (c *Capture) table(cat *plan.Catalog, name string) *TableCounters {
	c.mu.RLock()
	tc, ok := c.tables[name]
	c.mu.RUnlock()
	if ok {
		return tc
	}
	schema := cat.Table(name).Schema
	names := make([]string, schema.Width())
	for i, a := range schema.Attrs {
		names[i] = a.Name
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tc, ok := c.tables[name]; ok {
		return tc
	}
	tc = &TableCounters{name: name, names: names, cols: make([]atomic.Int64, len(names))}
	c.tables[name] = tc
	c.order = append(c.order, name)
	return tc
}

// Table returns the registered counters for name (nil if the capture has
// never seen the table). The metrics layer holds the returned pointer in
// scrape-time closures.
func (c *Capture) Table(name string) *TableCounters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// ShapeEntry is one tracked plan shape: a normalized-plan identity, a
// concrete representative plan, and an execution count.
type ShapeEntry struct {
	key    string
	sample plan.Node
	json   []byte
	count  atomic.Int64
}

// shapeRing retains the most recently first-seen cap shapes. Hits bump an
// atomic through the pointer cached in each Footprint; only the insertion
// of a brand-new shape takes the mutex, and past cap it overwrites the
// oldest slot (the entry keeps counting through stale Footprints, but is
// no longer reported or fed to the advisor).
type shapeRing struct {
	mu      sync.Mutex
	cap     int
	m       map[string]*ShapeEntry
	ring    []*ShapeEntry
	next    int
	evicted int64
}

func (r *shapeRing) entry(key string, shapeJSON []byte, sample plan.Node) *ShapeEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.m[key]; ok {
		return e
	}
	e := &ShapeEntry{key: key, sample: sample, json: shapeJSON}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, e)
	} else {
		old := r.ring[r.next]
		delete(r.m, old.key)
		r.evicted++
		r.ring[r.next] = e
		r.next = (r.next + 1) % r.cap
	}
	r.m[key] = e
	return e
}

// ColHeat is one attribute's read count in a snapshot.
type ColHeat struct {
	Attr  int    `json:"attr"`
	Name  string `json:"name"`
	Reads int64  `json:"reads"`
}

// TableHeat is one table's capture snapshot.
type TableHeat struct {
	Table       string    `json:"table"`
	Queries     int64     `json:"queries"`
	RowsScanned int64     `json:"rowsScanned"`
	Cols        []ColHeat `json:"cols"`
}

// ShapeInfo is one tracked plan shape in a snapshot. Shape is a short hex
// digest of the normalized-plan identity; Plan is the normalized encoding
// (constants zeroed).
type ShapeInfo struct {
	Shape string          `json:"shape"`
	Count int64           `json:"count"`
	Plan  json.RawMessage `json:"plan,omitempty"`
}

// Snapshot returns the per-table heat in first-seen order, the tracked
// shapes sorted by descending count, and the number of shapes the ring
// has evicted.
func (c *Capture) Snapshot() (tables []TableHeat, shapes []ShapeInfo, evicted int64) {
	c.mu.RLock()
	tcs := make([]*TableCounters, 0, len(c.order))
	for _, name := range c.order {
		tcs = append(tcs, c.tables[name])
	}
	c.mu.RUnlock()
	tables = make([]TableHeat, 0, len(tcs))
	for _, tc := range tcs {
		th := TableHeat{
			Table:       tc.name,
			Queries:     tc.execs.Load(),
			RowsScanned: tc.rows.Load(),
			Cols:        make([]ColHeat, len(tc.cols)),
		}
		for i := range tc.cols {
			th.Cols[i] = ColHeat{Attr: i, Name: tc.names[i], Reads: tc.cols[i].Load()}
		}
		tables = append(tables, th)
	}

	c.shapes.mu.Lock()
	entries := append([]*ShapeEntry(nil), c.shapes.ring...)
	evicted = c.shapes.evicted
	c.shapes.mu.Unlock()
	shapes = make([]ShapeInfo, 0, len(entries))
	for _, e := range entries {
		shapes = append(shapes, ShapeInfo{Shape: shortShape(e.key), Count: e.count.Load(), Plan: e.json})
	}
	sort.SliceStable(shapes, func(i, j int) bool { return shapes[i].Count > shapes[j].Count })
	return tables, shapes, evicted
}

// Mix converts the captured shape frequencies into the optimizer's
// workload-declaration form: one weighted query per tracked shape with a
// non-zero count, using the concrete representative plan (real constants,
// so selectivity estimation sees real predicates) and the observed
// execution count as the frequency. Entries come out in ring-slot order,
// which is stable across calls, so repeated Advise runs price an
// unchanged mix identically. The second result is the total executions
// behind the mix.
func (c *Capture) Mix(name string) (*Workload, int64) {
	c.shapes.mu.Lock()
	entries := append([]*ShapeEntry(nil), c.shapes.ring...)
	c.shapes.mu.Unlock()
	w := &Workload{Name: name}
	total := int64(0)
	for _, e := range entries {
		n := e.count.Load()
		if n == 0 || e.sample == nil {
			continue
		}
		w.Add(shortShape(e.key), e.sample, float64(n))
		total += n
	}
	return w, total
}

// shortShape renders a shape identity (the service's 32-byte digest) as a
// short hex handle for JSON and logs.
func shortShape(key string) string {
	h := hex.EncodeToString([]byte(key))
	if len(h) > 16 {
		h = h[:16]
	}
	return h
}
