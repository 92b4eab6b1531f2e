package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// metricDef names one metric. The lists below are the benchmark's
// vocabulary: BENCHMARK.json declares the same names, and later changes
// claim gains by them.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"setup_heap_mb", "MiB", false},
	{"throughput_rps", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"latency_p95_ms", "ms", false},
}

var perLayer = []metricDef{
	{"plan.decode_us", "us", false},
	{"plan.key_us", "us", false},
	{"plan.check_us", "us", false},
	{"plan.body_bytes", "B", false},
	{"plan.shape_us", "us", false},
	{"jit.prepare_us", "us", false},
	{"jit.exec_us", "us", false},
	{"jit.rows_scanned_per_row_out", "ratio", false},
	{"core.pin_us", "us", false},
	{"core.commit_us", "us", false},
	{"core.commits", "count", true},
	{"core.live_versions_max", "count", false},
	{"service.query_us", "us", false},
	{"service.overhead_us", "us", false},
	{"service.handler_us", "us", false},
	{"service.encode_us", "us", false},
	{"service.response_bytes", "B", false},
	{"service.insert_us", "us", false},
	{"service.plan_cache_hit_ratio", "ratio", true},
	{"service.plan_cache_misses", "count", false},
	{"service.plan_cache_evictions", "count", false},
	{"service.queued", "count", false},
	{"service.rejected", "count", false},
	{"persist.log_insert_us", "us", false},
	{"persist.wal_bytes_per_row", "B", false},
	{"persist.checkpoints", "count", false},
	{"storage.load_rows_per_s", "1/s", true},
	{"storage.heap_bytes_per_user_byte", "ratio", false},
	{"index.build_ms", "ms", false},
	{"layout.optimize_ms", "ms", false},
	{"http.roundtrip_us", "us", false},
	{"http.wire_us", "us", false},
	{"runtime.cpu_us_per_op", "us", false},
	{"runtime.alloc_bytes_per_op", "B", false},
	{"runtime.allocs_per_op", "count", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms_total", "ms", false},
	{"writer.insert_ms_p50", "ms", false},
	{"writer.late_ms_p95", "ms", false},
	{"trace.overhead_ratio", "ratio", false},
}

// outcome is one workload's run.
type outcome struct {
	wl        *workload
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64 // nil when the traced pass did not run
	info      []string           // sample counts and other lines that are not metrics
	budget    []budgetLine       // where a request's time goes; nil without a traced pass
}

// counters are the counts read before and after the untraced window.
type counters struct {
	stats service.Stats
	mem   runtime.MemStats
	cpu   time.Duration
	wal   int64
}

func readCounters(e *env) counters {
	var c counters
	c.stats = e.svc.Stats()
	if e.mgr != nil {
		c.wal = e.mgr.WALSize()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func runWorkload(cfg config, name string) (*outcome, error) {
	phase := time.Now()
	lap := func() float64 { // seconds since the previous lap
		s := time.Since(phase).Seconds()
		phase = time.Now()
		return s
	}
	d := generate(cfg.seed, cfg.ordersRows, cfg.recentRows)
	wl, err := workloadByName(name, d)
	if err != nil {
		return nil, err
	}
	out := &outcome{wl: wl, e2e: map[string]float64{}}
	out.info = append(out.info, fmt.Sprintf("inputs: %d + %d bytes of CSV generated in %.1f s, before any clock", len(d.ordersCSV), len(d.recentCSV), lap()))

	// Set up several times and report the median, so one slow set-up does
	// not decide setup_s. The last system built is the one served.
	var e *env
	var totals, heaps []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		if e, err = setUp(cfg, wl, d); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, e.setup.total.Seconds())
		heaps = append(heaps, float64(e.setup.heapBytes)/(1<<20))
	}
	defer e.close()
	// The CSV is the benchmark's, not the system's: dropped here, the heap
	// that paces the collector during the window is the system's own.
	d.ordersCSV, d.recentCSV = nil, nil
	runtime.GC()
	out.e2e["setup_s"] = median(totals)
	out.e2e["setup_heap_mb"] = median(heaps)
	out.info = append(out.info, fmt.Sprintf("set-ups: %d in %.1f s, the slowest taking %.3f s", cfg.setups, lap(), slices.Max(totals)))
	if !cfg.quick && out.e2e["setup_s"] < 2 {
		warn("%s: setup_s is %.2f s, under the 2 s the table sizes were chosen for", name, out.e2e["setup_s"])
	}

	if err := gate(e, wl, d); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	out.info = append(out.info, fmt.Sprintf("correctness gate: %d distinct plans against the %s engine in %.1f s", len(e.reqs), baselineEngine, lap()))

	// The untraced window: every end-to-end metric comes from here.
	before := readCounters(e)
	win := drive(e, wl, d, time.Duration(cfg.seconds)*time.Second)
	after := readCounters(e)
	clients, writer := win.clients, win.writer

	out.attempted = clients.attempted + writer.attempted
	out.failed = clients.failed + writer.failed
	for _, err := range []error{clients.firstErr, writer.firstErr} {
		if err != nil {
			warn("%s: first failed request: %v", name, err)
		}
	}
	if len(clients.samples) == 0 {
		return nil, fmt.Errorf("no request completed in the window")
	}
	lat := make([]float64, len(clients.samples))
	for i, s := range clients.samples {
		lat[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(lat)
	rates := perSecond(clients.samples, cfg.seconds)
	if len(rates) == 0 { // a window too short to drop its ends
		rates = []float64{float64(len(clients.samples)) / float64(cfg.seconds)}
	}
	cv := variation(rates)
	out.e2e["throughput_rps"] = median(rates)
	out.e2e["latency_p50_ms"] = percentile(lat, 50)
	out.e2e["latency_p95_ms"] = percentile(lat, 95)
	out.info = append(out.info,
		fmt.Sprintf("latency samples: %d (%d beyond p95); p99 %.4f ms (information only)", len(lat), len(lat)-len(lat)*95/100, percentile(lat, 99)),
		fmt.Sprintf("per-second throughput: %d seconds counted, coefficient of variation %.3f", len(rates), cv))
	if cv > 0.15 {
		warn("%s: per-second throughput varied by %.0f%% of its mean over the window - a noisy neighbour?", name, cv*100)
	}

	if cfg.trace != 0 {
		lap()
		if err := out.traced(cfg, e, d, before, after, win); err != nil {
			return nil, err
		}
		out.info = append(out.info, fmt.Sprintf("traced pass and layer counts took %.1f s", lap()))
	}
	if wl.writes() {
		if err := checkWrites(e); err != nil {
			return nil, fmt.Errorf("write check: %w", err)
		}
	}
	return out, nil
}

// traced runs the traced pass and fills the per-layer metrics: stage times
// from the spans, counts from the deltas across the untraced window.
func (out *outcome) traced(cfg config, e *env, d *dataset, before, after counters, win window) error {
	wl, clients, writer := out.wl, win.clients, win.writer
	n := wl.tracedN
	if cfg.tracedCap > 0 {
		n = min(n, cfg.tracedCap)
	}
	spans, untracedMedian, err := tracedPass(cfg, e, wl, d, n)
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	scanned, err := rowsScannedPerRowOut(e)
	if err != nil {
		return err
	}

	// reqs holds, per request, each stage's duration. Two stages are what is
	// left of an enclosing call once the stages timed inside it are taken
	// out, request by request: the stages ran as separate calls, so their
	// medians do not subtract, but one request's durations do. Encoding is
	// what remains of the handler span; it therefore also holds whatever the
	// service call costs more inside a live request than replayed.
	reqs := byRequest(spans)
	query := "service.query"
	if len(wl.reads) == 0 {
		query = "service.insert"
		derive(reqs, "service.overhead", query, "persist.log_insert", "core.commit", "plan.key")
	} else {
		derive(reqs, "service.overhead", query, "jit.exec", "plan.key", "core.pin")
	}
	derive(reqs, "service.encode", "service.handler", query, "plan.decode")

	ops := float64(len(clients.samples))
	L := map[string]float64{}
	out.layers = L
	for _, stage := range []string{"plan.decode", "plan.key", "plan.check", "plan.shape", "jit.prepare", "jit.exec",
		"core.pin", "core.commit", "service.query", "service.overhead", "service.handler", "service.encode",
		"service.insert", "persist.log_insert", "http.roundtrip"} {
		L[stage+"_us"] = medianOf(reqs, stage)
	}
	L["http.wire_us"] = median(selfTimes(spans)["http.roundtrip"])
	L["trace.overhead_ratio"] = L["http.roundtrip_us"] / untracedMedian

	var bodyBytes, replyBytes []float64
	distinct := e.reqs
	if len(distinct) == 0 {
		distinct = []request{e.insertRequest(d, 0)}
	}
	c := newClient(e.url)
	for _, r := range distinct {
		_, size, err := c.do(r.body)
		if err != nil {
			return err
		}
		if r.insert() {
			e.acked.Add(1)
		}
		bodyBytes, replyBytes = append(bodyBytes, float64(len(r.body))), append(replyBytes, float64(size))
	}
	c.close()
	L["plan.body_bytes"] = median(bodyBytes)
	L["service.response_bytes"] = median(replyBytes)
	L["jit.rows_scanned_per_row_out"] = scanned

	sb, sa := before.stats, after.stats
	hits, misses := float64(sa.PlanCacheHits-sb.PlanCacheHits), float64(sa.PlanCacheMiss-sb.PlanCacheMiss)
	if hits+misses > 0 {
		L["service.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	L["service.plan_cache_misses"] = misses
	L["service.plan_cache_evictions"] = float64(sa.PlanEvictions - sb.PlanEvictions)
	L["service.queued"] = float64(sa.Queued - sb.Queued)
	L["service.rejected"] = float64(sa.Rejected - sb.Rejected)
	L["core.commits"] = float64(sa.Epoch - sb.Epoch)
	L["core.live_versions_max"] = float64(win.liveMax)
	if rows := float64(insertRows) * float64(clients.acked+writer.acked); rows > 0 {
		L["persist.wal_bytes_per_row"] = float64(after.wal-before.wal) / rows
	}
	L["persist.checkpoints"] = float64(sa.Checkpoints)
	L["storage.load_rows_per_s"] = float64(d.ordersRows+d.recentRows) / e.setup.load.Seconds()
	L["storage.heap_bytes_per_user_byte"] = float64(e.setup.heapBytes) / float64(8*(d.ordersRows*ordersWidth+d.recentRows*recentWidth))
	L["index.build_ms"] = float64(e.setup.index.Microseconds()) / 1e3
	L["layout.optimize_ms"] = float64(e.setup.optimize.Microseconds()) / 1e3
	L["runtime.cpu_us_per_op"] = float64((after.cpu - before.cpu).Microseconds()) / ops
	L["runtime.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	L["runtime.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	L["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	L["runtime.gc_pause_ms_total"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	if len(writer.samples) > 0 {
		wlat, late := make([]float64, len(writer.samples)), make([]float64, len(writer.late))
		for i, s := range writer.samples {
			wlat[i], late[i] = float64(s.lat)/1e6, float64(writer.late[i])/1e6
		}
		sort.Float64s(wlat)
		sort.Float64s(late)
		L["writer.insert_ms_p50"] = percentile(wlat, 50)
		L["writer.late_ms_p95"] = percentile(late, 95)
	}
	out.info = append(out.info, fmt.Sprintf("traced pass: %d requests, %d spans; untraced serial round trip %.1f us", n, len(spans), untracedMedian))
	out.budget = requestBudget(wl, reqs)
	return nil
}

// rowsScannedPerRowOut runs every distinct read plan once with the
// engine's own operator counters on and returns the median, over the
// plans, of rows the scans examined per row returned.
func rowsScannedPerRowOut(e *env) (float64, error) {
	var ratios []float64
	for _, r := range e.reqs {
		res, tr, err := e.svc.QueryEx(r.plan, service.QueryOpts{Explain: true})
		if err != nil {
			return 0, err
		}
		var scanned int64
		for _, op := range tr.Report() {
			if op.Op == "scan" {
				scanned += op.RowsIn
			}
		}
		ratios = append(ratios, float64(scanned)/float64(max(res.Len(), 1)))
	}
	return median(ratios), nil
}

// budgetLine is one row of "where a request's time goes": a stage's median
// duration, and the median over the requests of its share of that
// request's handler span. Shares are taken request by request because the
// plans of one workload differ in length by up to six times.
type budgetLine struct {
	stage string
	us    float64
	share float64
}

// requestBudget splits the handler span into the stages the traced pass
// timed. decode, key, pin, exec (log, commit for inserts) are timed
// directly; overhead and encode are what is left of the calls that enclose
// them, so the lines add up to the handler span by construction. The
// directly timed share says how much of the request the trace explains
// without that subtraction.
func requestBudget(wl *workload, reqs map[int]map[string]float64) []budgetLine {
	stages := []string{"plan.decode", "plan.key", "core.pin", "jit.exec", "service.overhead", "service.encode"}
	if len(wl.reads) == 0 {
		stages = []string{"plan.decode", "plan.key", "persist.log_insert", "core.commit", "service.overhead", "service.encode"}
	}
	var lines []budgetLine
	var direct []string
	for _, s := range stages {
		lines = append(lines, budgetLine{s, medianOf(reqs, s), medianShare(reqs, s, "service.handler")})
		if !strings.HasPrefix(s, "service.") {
			direct = append(direct, s)
		}
	}
	// The directly timed stages together: the handler minus what they leave.
	derive(reqs, "unexplained", "service.handler", direct...)
	derive(reqs, "(directly timed stages)", "service.handler", "unexplained")
	return append(lines, budgetLine{"(directly timed stages)", medianOf(reqs, "(directly timed stages)"), medianShare(reqs, "(directly timed stages)", "service.handler")})
}

// report is the object the contract's last output line carries.
type report struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects the metrics the -trace setting asks for: the end-to-end
// ones with 0, the per-layer ones with 1, both otherwise.
func (out *outcome) report(trace int) report {
	r := report{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]reportMetric{}}
	if trace != 1 {
		for _, def := range endToEnd {
			r.Metrics[def.name] = reportMetric{out.e2e[def.name], def.unit}
		}
	}
	if trace != 0 {
		for _, def := range perLayer {
			r.Metrics[def.name] = reportMetric{out.layers[def.name], def.unit}
		}
	}
	return r
}

func (out *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %d closed-loop client(s)", out.wl.name, out.wl.clients)
	if out.wl.writeRate > 0 {
		fmt.Fprintf(w, ", 1 open-loop writer at %d commits/s", out.wl.writeRate)
	}
	fmt.Fprintf(w, " ==\n   %s\n", out.wl.why)
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", out.attempted, out.failed)
	for _, def := range endToEnd {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", def.name, out.e2e[def.name], def.unit)
	}
	for _, line := range out.info {
		fmt.Fprintf(w, "  # %s\n", line)
	}
	if out.layers == nil {
		return
	}
	for _, def := range perLayer {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", def.name, out.layers[def.name], def.unit)
	}
	fmt.Fprintf(w, "  where a request's time goes (median over the traced requests; median share of the request's handler span):\n")
	for _, b := range out.budget {
		fmt.Fprintf(w, "    %-26s %12.2f us %6.1f%%\n", b.stage, b.us, b.share*100)
	}
}

func warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "warning: "+format+"\n", args...)
}
