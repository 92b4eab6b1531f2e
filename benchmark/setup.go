package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/service"
)

// walPolicy is what both sides of any comparison run with; it is printed
// with every result.
const walPolicy = "fsync off, coalescing off, automatic checkpoints off"

// env is one served system: a fresh catalog behind service.Handler() on a
// loopback listener.
type env struct {
	svc    *service.DB
	tap    *tap
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	url    string
	mgr    *persist.Manager // nil on read-only workloads
	walDir string
	reqs   []request // the workload's distinct read requests
	// acked counts inserts the served system acknowledged, from set-up on;
	// the events table must hold insertRows times as many rows.
	acked atomic.Int64
	setup setupCost
}

// setupCost is what getting a node ready cost, by stage.
type setupCost struct {
	total, load, index, optimize time.Duration
	heapBytes                    uint64 // HeapAlloc growth across set-up, generator input excluded
}

// tap is the benchmark's own wrapping handler: with a recorder installed
// it spans ServeHTTP for the traced pass's requests; otherwise it only
// forwards.
type tap struct {
	inner http.Handler
	rec   atomic.Pointer[recorder]
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	if rec == nil || r.Header.Get(tracedHeader) == "" {
		t.inner.ServeHTTP(w, r)
		return
	}
	id := rec.beginChild("service.handler")
	t.inner.ServeHTTP(w, r)
	rec.end(id)
}

// setUp builds the served system for one workload and times every call
// into it. The clock covers only the system's work: the CSV was generated
// before, and the listener is the benchmark's.
func setUp(cfg config, wl *workload, d *dataset) (*env, error) {
	e := &env{}
	for _, p := range wl.reads {
		e.reqs = append(e.reqs, request{body: mustBody(p), plan: p})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String() + "/query"
	if wl.writes() {
		e.walDir, err = os.MkdirTemp(cfg.outDir, "wal-"+wl.name+"-")
		if err != nil {
			ln.Close()
			return nil, err
		}
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	e.svc = service.New(core.Open(), service.Config{Workers: cfg.procs})
	e.svc.SetLogger(discardLogger)
	e.tap = &tap{inner: e.svc.Handler()}
	e.srv = &http.Server{Handler: e.tap}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // ErrServerClosed once close shuts it down
	}()

	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	for _, t := range []struct {
		name, spec string
		csv        []byte
		rows       int
	}{{"orders", ordersSpec, d.ordersCSV, d.ordersRows}, {"recent", recentSpec, d.recentCSV, d.recentRows}} {
		res, err := e.svc.Load(service.LoadSpec{Table: t.name, Format: "csv", CreateSpec: t.spec}, bytes.NewReader(t.csv))
		if err != nil {
			return fail(fmt.Errorf("loading %s: %w", t.name, err))
		}
		if res.Rows != t.rows {
			return fail(fmt.Errorf("loading %s: %d rows loaded, want %d", t.name, res.Rows, t.rows))
		}
	}
	e.setup.load = time.Since(start)

	t := time.Now()
	e.svc.Unwrap().CreateHashIndex("orders", 0)
	e.setup.index = time.Since(t)

	t = time.Now()
	for i, p := range wl.reads {
		e.svc.AddWorkload(fmt.Sprintf("%s-%d", wl.name, i), p, 1)
	}
	if _, err := e.svc.OptimizeLayouts(); err != nil {
		return fail(fmt.Errorf("optimizing layouts: %w", err))
	}
	e.setup.optimize = time.Since(t)

	// The WAL is attached only now, so it carries events and nothing of the
	// two loaded tables: set-up does not become a 200 MB disk write.
	if wl.writes() {
		_, e.mgr, err = persist.Open(persist.Options{Dir: e.walDir, Fresh: true})
		if err != nil {
			return fail(fmt.Errorf("opening WAL: %w", err))
		}
		e.svc.AttachPersist(e.mgr, -1)
	}
	if _, err := e.svc.Load(service.LoadSpec{Table: "events", Format: "csv", CreateSpec: eventsSpec}, bytes.NewReader(nil)); err != nil {
		return fail(fmt.Errorf("creating events: %w", err))
	}

	// A fixed count of warm-up requests, so work a later change moves into
	// preparation shows in setup_s.
	c := newClient(e.url)
	warm := e.reqs
	if wl.writes() {
		warm = append(warm[:len(warm):len(warm)], e.insertRequest(d, 0))
	}
	for i := 0; i < warmupPlays; i++ {
		for _, r := range warm {
			if _, _, err := c.do(r.body); err != nil { // the gate checks the rows later
				return fail(fmt.Errorf("warm-up request %s: %w", r.body, err))
			}
			if r.insert() {
				e.acked.Add(1)
			}
		}
	}
	c.close()
	runtime.GC()
	e.setup.total = time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		e.setup.heapBytes = after.HeapAlloc - before.HeapAlloc
	}
	return e, nil
}

// insertRequest is the i-th insert a writer sends.
func (e *env) insertRequest(d *dataset, i int) request {
	i %= len(d.insertBodies)
	return request{body: d.insertBodies[i], plan: d.insertPlans[i], wantRows: 1}
}

// close stops the server and waits for it, then drops the WAL directory.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil {
			e.srv.Close()
		}
		cancel()
		<-e.served
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.mgr != nil {
		e.mgr.Close()
		e.mgr = nil
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}
