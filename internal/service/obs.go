package service

import (
	"log/slog"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Metric surface of the service. The registry is the only store of every
// count the service increments: the request path bumps these counters,
// and GET /metrics, GET /stats and the Go Stats shim all read them.
// Levels (in-flight queries, followers, replica lag) stay atomics next to
// the state they describe and are read by GaugeFunc at scrape time.
type svcMetrics struct {
	reg *obs.Registry

	queries, failed, rejected           *obs.Counter // db_queries_total by outcome
	queued, rows                        *obs.Counter
	planHits, planMisses, planEvictions *obs.Counter
	relayouts, loads, loadedRows        *obs.Counter

	latOK       *obs.Histogram // end-to-end, including queue wait
	latFailed   *obs.Histogram
	latRejected *obs.Histogram
	queueWait   *obs.Histogram

	ckptSeconds, fsyncSeconds             *obs.Histogram
	walAppended, checkpoints, persistErrs *obs.Counter

	replSyncs, replRetries, promotions, fences *obs.Counter
	replPoll                                   *obs.Histogram

	slowQueries, advisorRuns *obs.Counter
}

// initMetrics builds the registry over a fully-constructed DB. Called
// once from New, before the service is shared.
func (s *DB) initMetrics() {
	r := obs.NewRegistry()
	m := &svcMetrics{reg: r}

	lat := "db_query_latency_seconds"
	latHelp := "End-to-end query latency including admission queue wait, by outcome."
	m.latOK = r.Histogram(lat, latHelp, nil, obs.Labels{"outcome": "ok"})
	m.latFailed = r.Histogram(lat, latHelp, nil, obs.Labels{"outcome": "error"})
	m.latRejected = r.Histogram(lat, latHelp, nil, obs.Labels{"outcome": "rejected"})
	m.queueWait = r.Histogram("db_query_queue_wait_seconds",
		"Time spent waiting for an admission slot (queued requests only).", nil, nil)

	qt := "db_queries_total"
	qtHelp := "Queries finished, by outcome."
	m.queries = r.Counter(qt, qtHelp, obs.Labels{"outcome": "ok"})
	m.failed = r.Counter(qt, qtHelp, obs.Labels{"outcome": "error"})
	m.rejected = r.Counter(qt, qtHelp, obs.Labels{"outcome": "rejected"})
	m.queued = r.Counter("db_queries_queued_total", "Requests that waited for an admission slot.", nil)
	m.rows = r.Counter("db_result_rows_total", "Result rows served by successful queries.", nil)
	r.GaugeFunc("db_inflight_queries", "Queries executing right now.", nil,
		func() float64 { return float64(s.inFlight.Load()) })
	m.planHits = r.Counter("db_plan_cache_hits_total", "Executions that reused a compiled plan.", nil)
	m.planMisses = r.Counter("db_plan_cache_misses_total", "Executions that compiled their plan.", nil)
	m.planEvictions = r.Counter("db_plan_cache_evictions_total", "Compiled plans evicted by the LRU.", nil)
	m.relayouts = r.Counter("db_relayouts_total", "OptimizeLayouts runs that published a layout change.", nil)
	m.loads = r.Counter("db_loads_total", "Completed bulk loads.", nil)
	m.loadedRows = r.Counter("db_loaded_rows_total", "Rows ingested by bulk loads.", nil)

	r.GaugeFunc("db_pool_workers", "Shared morsel-scheduler pool size (1 = serial).", nil,
		func() float64 { return float64(s.opt.WorkerCount()) })
	if s.pool != nil {
		busyHelp := "Seconds each pool worker spent running morsels."
		for w := 0; w < s.opt.WorkerCount(); w++ {
			w := w
			r.CounterFunc("db_pool_busy_seconds_total", busyHelp,
				obs.Labels{"worker": strconv.Itoa(w)},
				func() float64 {
					if busy := s.pool.BusyNanos(); w < len(busy) {
						return float64(busy[w]) / 1e9
					}
					return 0
				})
		}
	}

	// MVCC surface: the published version, the pinned-reader gauge and
	// the reclaim backlog. A backlog stuck above zero while snapshots
	// are active is normal (readers pin superseded versions until they
	// finish); stuck above zero with zero active snapshots would mean a
	// reclamation leak.
	r.GaugeFunc("db_snapshot_epoch",
		"Currently published MVCC catalog version.", nil,
		func() float64 { return float64(s.core().Epoch()) })
	r.GaugeFunc("db_snapshots_active",
		"Reader snapshots currently pinned.", nil,
		func() float64 { return float64(s.core().ActiveSnapshots()) })
	r.GaugeFunc("db_version_reclaim_backlog",
		"Superseded catalog versions awaiting reader drain.", nil,
		func() float64 { return float64(s.core().LiveVersions() - 1) })
	r.CounterFunc("db_versions_reclaimed_total",
		"Superseded catalog versions reclaimed after their last unpin.", nil,
		func() float64 { return float64(s.core().VersionsReclaimed()) })

	m.ckptSeconds = r.Histogram("db_checkpoint_seconds",
		"Checkpoint duration (snapshot write + WAL rotation).", nil, nil)
	m.fsyncSeconds = r.Histogram("db_wal_fsync_seconds",
		"WAL group-commit flush+fsync latency (fsync mode only).", nil, nil)
	m.walAppended = r.Counter("db_wal_appended_bytes_total",
		"Bytes appended to the WAL, frames included.", nil)
	m.checkpoints = r.Counter("db_checkpoints_total", "Completed checkpoints.", nil)
	m.persistErrs = r.Counter("db_persist_errors_total", "Failed WAL/checkpoint operations.", nil)
	r.GaugeFunc("db_wal_bytes", "Current WAL length (0 without persistence).", nil, func() float64 {
		if mgr := s.mgr(); mgr != nil {
			return float64(mgr.WALSize())
		}
		return 0
	})

	r.GaugeFunc("db_replication_lag_bytes",
		"Replica: committed primary WAL bytes not yet applied.", nil,
		func() float64 { return float64(s.repl.lagBytes.Load()) })
	r.GaugeFunc("db_replication_lag_records",
		"Replica: committed primary records not yet applied.", nil,
		func() float64 { return float64(s.repl.lagRecords.Load()) })
	r.GaugeFunc("db_repl_followers", "Primary: connected WAL tail streams.", nil,
		func() float64 { return float64(s.repl.followers.Load()) })
	r.GaugeFunc("db_repl_term", "Replication fencing term (promotion takes term+1).", nil, func() float64 {
		s.roleMu.RLock()
		defer s.roleMu.RUnlock()
		return float64(s.role.term)
	})
	m.replSyncs = r.Counter("db_repl_syncs_total", "Replica: snapshot bootstraps (>1 means resyncs).", nil)
	m.replRetries = r.Counter("db_repl_retries_total", "Replica: retried bootstrap/tail failures.", nil)
	m.replPoll = r.Histogram("db_repl_poll_seconds",
		"Replica: latency of one poll/apply round against the primary.", nil, nil)
	m.promotions = r.Counter("db_promotions_total", "Replica promotions to primary.", nil)
	m.fences = r.Counter("db_fences_total", "Primaries fenced by a higher term.", nil)

	m.slowQueries = r.Counter("db_slow_queries_total",
		"Queries over the -slow-query-ms threshold.", nil)

	// Plan-cache occupancy. Per-shape series would be unbounded
	// cardinality (shapes are content-addressed digests), so only the
	// entry count, the aggregate shape count and the entry count behind
	// the hottest shape are exported — together they quantify the
	// constant-embedding blowup (entries ≫ shapes, top shape holding most
	// entries) that parameter binding would collapse.
	r.GaugeFunc("db_plan_cache_entries", "Compiled plans in the LRU.", nil,
		func() float64 {
			s.planMu.Lock()
			defer s.planMu.Unlock()
			return float64(s.plans.ll.Len())
		})
	r.GaugeFunc("db_plan_cache_shapes",
		"Distinct constant-normalized plan shapes behind the cached entries.", nil,
		func() float64 {
			s.planMu.Lock()
			defer s.planMu.Unlock()
			return float64(len(s.plans.shapes))
		})
	r.GaugeFunc("db_plan_cache_top_shape_entries",
		"Cache entries held by the most duplicated plan shape (constant variants of one query).", nil,
		func() float64 {
			s.planMu.Lock()
			defer s.planMu.Unlock()
			top := 0
			for _, n := range s.plans.shapes {
				if n > top {
					top = n
				}
			}
			return float64(top)
		})

	m.advisorRuns = r.Counter("db_layout_advisor_runs_total",
		"Layout-drift advisor analyses (periodic loop + GET /advisor).", nil)

	r.Info("served_build_info",
		"Build metadata of the serving binary; value is constant 1.",
		obs.Labels{"version": buildVersion(), "goversion": runtime.Version()})
	r.GaugeFunc("served_uptime_seconds",
		"Seconds since the service was constructed.", nil,
		func() float64 { return time.Since(s.start).Seconds() })

	s.metrics = m
}

// buildVersion reports the main module's version as stamped by the Go
// toolchain ("(devel)" for plain go build, a pseudo-version or tag for
// module-aware installs).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// driftGauge returns the per-table layout-drift gauge, registering it on
// first use (re-registration returns the existing instance, so Advise
// just calls this every run).
func (s *DB) driftGauge(table string) *obs.Gauge {
	return s.metrics.reg.Gauge("db_layout_drift_ratio",
		"Current-layout workload cost over BPi-optimal cost for the captured mix, per table (1 = no drift).",
		obs.Labels{"table": table})
}

// registerHeat exposes the capture counters of newly seen tables on the
// registry: per-column read counts plus per-table execution and
// rows-scanned tallies. Called from the compile path (once per table,
// guarded by heatTables), never from the per-execution path. Cardinality
// is bounded by the schema: one series per column, not per query.
func (s *DB) registerHeat(accs []exec.TableAccess) {
	for _, acc := range accs {
		if _, seen := s.heatTables.LoadOrStore(acc.Table, struct{}{}); seen {
			continue
		}
		tc := s.capture.Table(acc.Table)
		if tc == nil {
			s.heatTables.Delete(acc.Table) // not registered (unknown table); retry later
			continue
		}
		r := s.metrics.reg
		labels := obs.Labels{"table": acc.Table}
		r.CounterFunc("db_table_queries_total",
			"Executions that scanned the table (workload capture).", labels,
			func() float64 { return float64(tc.Execs()) })
		r.CounterFunc("db_table_rows_scanned_total",
			"Rows covered by the table's scans (workload capture; index lookups count 0).", labels,
			func() float64 { return float64(tc.RowsScanned()) })
		for attr := 0; attr < tc.Width(); attr++ {
			attr := attr
			r.CounterFunc("db_column_reads_total",
				"Executions that read the column (workload capture).",
				obs.Labels{"table": acc.Table, "column": tc.ColName(attr)},
				func() float64 { return float64(tc.ColReads(attr)) })
		}
	}
}

// Metrics returns the service's metric registry; its Handler serves
// GET /metrics in Prometheus text exposition format.
func (s *DB) Metrics() *obs.Registry { return s.metrics.reg }

// SetLogger replaces the service's structured logger (default
// slog.Default). Safe to call while serving.
func (s *DB) SetLogger(l *slog.Logger) { s.logPtr.Store(l) }

// Logger returns the current structured logger (never nil) — the repl
// tail loop logs correlated apply lines through it, so one X-Query-Id
// grep covers primary and replica output alike.
func (s *DB) Logger() *slog.Logger { return s.logger() }

// logger returns the current structured logger, never nil.
func (s *DB) logger() *slog.Logger {
	if l := s.logPtr.Load(); l != nil {
		return l
	}
	return slog.Default()
}

// SetSlowQueryThreshold arms slow-query logging: any read plan whose
// execution takes at least d is logged with its shape and operator
// trace. 0 disables. While armed, every read executes with tracing on
// — the per-operator numbers in the log are real, not resampled.
func (s *DB) SetSlowQueryThreshold(d time.Duration) {
	s.slowNanos.Store(d.Nanoseconds())
}

// ObserveReplPoll feeds the replica poll-latency histogram; the repl
// tail loop calls it once per poll round.
func (s *DB) ObserveReplPoll(seconds float64) { s.metrics.replPoll.Observe(seconds) }

// slowQueryShapeBytes caps the plan shape embedded in a slow-query log
// line; a megabyte-sized remote plan must not flood the log.
const slowQueryShapeBytes = 2048

// logSlowQuery emits one structured warning for a query that crossed
// the slow threshold: the constant-normalized plan shape (what you
// would cache on) and the per-operator trace report.
func (s *DB) logSlowQuery(p plan.Node, elapsed time.Duration, tr *obs.QueryTrace) {
	s.metrics.slowQueries.Inc()
	shape := "?"
	if data, err := plan.MarshalNode(plan.Normalize(p)); err == nil {
		if len(data) > slowQueryShapeBytes {
			data = data[:slowQueryShapeBytes]
		}
		shape = string(data)
	}
	args := []any{
		slog.Int64("micros", elapsed.Microseconds()),
		slog.String("shape", shape),
	}
	if tr != nil {
		args = append(args, slog.Any("trace", tr.Report()))
	}
	s.logger().Warn("slow query", args...)
}
