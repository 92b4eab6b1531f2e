package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/service"
)

// span is one timed call into a layer, recorded by the benchmark's own
// files around the layer's public functions. Spans of one request share
// Req; Parent is the ID of the span that caused this one, 0 for a root.
// Start and End are nanoseconds since the traced pass began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the pass ends. The client and the
// server's handler goroutine both record, so it locks; the traced pass is
// serial, so nothing ever waits.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cur is the open span new children of the current request hang under:
	// the tap's handler span looks its parent up here.
	cur int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name})
	s := &r.spans[len(r.spans)-1]
	s.Start = int64(time.Since(r.t0))
	return s.ID
}

// beginChild opens a span under the current one, for the same request.
func (r *recorder) beginChild(name string) int {
	r.mu.Lock()
	parent := r.spans[r.cur-1]
	r.mu.Unlock()
	return r.begin(name, parent.ID, parent.Req)
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// root opens a request's root span and makes it current.
func (r *recorder) root(name string, req int) int {
	id := r.begin(name, 0, req)
	r.mu.Lock()
	r.cur = id
	r.mu.Unlock()
	return id
}

// timed spans fn under the current span.
func (r *recorder) timed(name string, fn func()) {
	id := r.beginChild(name)
	fn()
	r.end(id)
}

// selfTimes groups, by span name, each span's duration minus the part of
// it its child spans cover, in microseconds. Children of one span do not
// overlap here (every recorded call is serial), so covered time is the sum
// of the children clipped to the parent.
func selfTimes(spans []span) map[string][]float64 {
	covered := make(map[int]int64, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID])/1e3)
	}
	return out
}

// byRequest lists, for each request id, the duration in microseconds of
// each span name the request recorded.
func byRequest(spans []span) map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	for _, s := range spans {
		if out[s.Req] == nil {
			out[s.Req] = map[string]float64{}
		}
		out[s.Req][s.Name] += float64(s.End-s.Start) / 1e3
	}
	return out
}

// derive adds to every request that recorded all the named stages a stage
// name: the whole's duration minus the parts'.
func derive(reqs map[int]map[string]float64, name, whole string, parts ...string) {
next:
	for _, d := range reqs {
		v, ok := d[whole]
		if !ok {
			continue
		}
		for _, p := range parts {
			part, ok := d[p]
			if !ok {
				continue next
			}
			v -= part
		}
		d[name] = v
	}
}

// medianOf is the median of a stage over the requests that have it.
func medianOf(reqs map[int]map[string]float64, stage string) float64 {
	var v []float64
	for _, d := range reqs {
		if x, ok := d[stage]; ok {
			v = append(v, x)
		}
	}
	return median(v)
}

// medianShare is the median, over the requests that have both, of a
// stage's share of another.
func medianShare(reqs map[int]map[string]float64, stage, of string) float64 {
	var v []float64
	for _, d := range reqs {
		x, ok := d[stage]
		if y, ok2 := d[of]; ok && ok2 && y > 0 {
			v = append(v, x/y)
		}
	}
	return median(v)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPass replays n of the workload's requests serially. Each request
// is first sent for real — the round trip, and inside it the handler, are
// spanned — and then its body is walked through the public functions the
// handler calls, one span per stage, all children of one replay span with
// the same request id. Inserts are replayed on a scratch core, manager and
// service, never on the served ones. It returns the spans and the median of
// an untraced serial pass over the same requests in microseconds.
func tracedPass(cfg config, e *env, wl *workload, d *dataset, n int) (spans []span, untracedMedian float64, err error) {
	reqAt := func(i int) request {
		if len(e.reqs) > 0 {
			return e.reqs[i%len(e.reqs)]
		}
		return e.insertRequest(d, i)
	}
	c, spanned := newClient(e.url), newClient(e.url)
	defer c.close()
	defer spanned.close()
	spanned.traced = true
	send := func(c *client, i int) error {
		r := reqAt(i)
		if err := c.send(r); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		if r.insert() {
			e.acked.Add(1)
		}
		return nil
	}

	// On read_under_writes the writer keeps its schedule through both
	// passes, so the trace shows the plan-cache misses the window had.
	if wl.writeRate > 0 {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := newClient(e.url)
			defer wc.close()
			w := openLoop(wc, func(i int) request { return e.insertRequest(d, i) }, wl.writeRate, time.Now(), time.Hour, &stop)
			e.acked.Add(int64(w.acked))
		}()
		defer wg.Wait()
		defer stop.Store(true)
	}

	// Every timed request, here and below, follows an untimed one of the
	// same plan, and so do the replayed stages: all of them then find the
	// caches as one execution of that plan leaves them. Without this the
	// round trip of a scan ran cold, after the previous plan's replay, and
	// its replayed stages warm, and the gap was booked as encoding.
	untraced := make([]float64, n)
	for i := range untraced {
		if err := send(c, i); err != nil {
			return nil, 0, err
		}
		t := time.Now()
		if err := send(c, i); err != nil {
			return nil, 0, err
		}
		untraced[i] = float64(time.Since(t)) / 1e3
	}

	pool := par.NewPool(cfg.procs)
	defer pool.Close()
	rp := &replayer{rec: newRecorder(), served: e.svc, opt: par.WithPool(pool)}
	if wl.writes() {
		dir, err := os.MkdirTemp(cfg.outDir, "wal-scratch-")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		_, mgr, err := persist.Open(persist.Options{Dir: dir, Fresh: true})
		if err != nil {
			return nil, 0, err
		}
		defer mgr.Close()
		rp.scratch = scratchCore(e.svc.Unwrap())
		rp.scratchSvc = service.New(rp.scratch, service.Config{Workers: cfg.procs})
		defer rp.scratchSvc.Close()
		rp.scratchSvc.SetLogger(discardLogger)
		rp.scratchSvc.AttachPersist(mgr, -1)
		rp.mgr = mgr
	}

	e.tap.rec.Store(rp.rec)
	defer e.tap.rec.Store(nil)
	for i := 0; i < n; i++ {
		if err := send(c, i); err != nil {
			return nil, 0, err
		}
		req := i + 1
		id := rp.rec.root("http.roundtrip", req)
		err := send(spanned, i)
		rp.rec.end(id)
		if err != nil {
			return nil, 0, err
		}
		id = rp.rec.root("replay", req)
		err = rp.replay(reqAt(i))
		// A tenth of read_under_writes' replays also walk the write path.
		if err == nil && wl.writeRate > 0 && i%10 == 0 {
			err = rp.replayInsert(d.insertPlans[i%len(d.insertPlans)])
		}
		rp.rec.end(id)
		if err != nil {
			return nil, 0, err
		}
	}
	return rp.rec.spans, median(untraced), nil
}

// replayer walks request bodies through the layers' public functions.
type replayer struct {
	rec    *recorder
	served *service.DB
	opt    par.Options
	// Set on writing workloads only.
	scratch    *core.DB
	scratchSvc *service.DB
	mgr        *persist.Manager
}

func (rp *replayer) replay(r request) error {
	rec := rp.rec
	var p plan.Node
	var err error
	// What handleQuery pays before it has a plan: the envelope, then the node.
	rec.timed("plan.decode", func() {
		var envelope struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err = json.Unmarshal(r.body, &envelope); err == nil {
			p, err = plan.UnmarshalNode(envelope.Plan)
		}
	})
	if err != nil {
		return err
	}
	// What planKey pays: the canonical encoding and its digest.
	rec.timed("plan.key", func() {
		var data []byte
		if data, err = plan.MarshalNode(p); err == nil {
			sha256.Sum256(data)
		}
	})
	if err != nil {
		return err
	}
	if ins, ok := p.(plan.Insert); ok {
		return rp.replayInsert(ins)
	}

	// What a plan-cache miss adds: the constant-free shape, then validation
	// and compilation against a pinned catalog.
	rec.timed("plan.shape", func() {
		var data []byte
		if data, err = plan.MarshalNode(plan.Normalize(p)); err == nil {
			sha256.Sum256(data)
		}
	})
	if err != nil {
		return err
	}
	db := rp.served.Unwrap()
	rec.timed("core.pin", func() { db.Snapshot().Release() })
	snap := db.Snapshot()
	defer snap.Release()
	rec.timed("plan.check", func() { err = plan.Check(p, snap.Catalog()) })
	if err != nil {
		return err
	}
	var prep *jit.Prepared
	rec.timed("jit.prepare", func() { prep = jit.PrepareOpt(p, snap.Catalog(), rp.opt) })
	// The served system runs a cached plan; a compiled plan's first
	// execution is a few microseconds slower than its later ones, so that
	// one goes untimed.
	prep.Exec()
	rec.timed("jit.exec", func() { prep.Exec() })
	rec.timed("service.query", func() { _, _, err = rp.served.QueryEx(p, service.QueryOpts{}) })
	return err
}

// replayInsert walks the write path on the scratch system: the WAL append,
// the copy-on-write commit, and service.QueryEx, which does both.
func (rp *replayer) replayInsert(ins plan.Insert) error {
	rec := rp.rec
	var err error
	rec.timed("persist.log_insert", func() { err = rp.mgr.LogInsert(ins.Table, eventsWidth, ins.Rows) })
	if err != nil {
		return err
	}
	rec.timed("core.commit", func() {
		tx := rp.scratch.BeginWrite()
		tx.Insert(ins.Table, ins.Rows)
		tx.Commit()
	})
	rec.timed("service.insert", func() { _, _, err = rp.scratchSvc.QueryEx(ins, service.QueryOpts{}) })
	return err
}
