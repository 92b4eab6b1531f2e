// Command served is the network front-end of the reproduction: it loads a
// database, wraps it in the concurrent service layer (shared worker pool,
// prepared-plan cache, admission control) and serves JSON-over-HTTP.
//
//	served -addr :8080 -rows 1000000 -workers 0
//	served -addr :8080 -data-dir ./data          # durable: snapshot + WAL
//	served -addr :8081 -replica-of http://primary:8080
//	served -addr :8081 -replica-of http://primary:8080 -data-dir ./data2
//	                                             # replica that can be promoted
//
// Endpoints:
//
//	POST /query      {"plan": <plan JSON>}   run a plan
//	POST /prepare    {"plan": <plan JSON>}   register a statement, get an id
//	POST /exec       {"id": "s1"}            run a prepared statement
//	POST /optimize   {}                      run the layout optimizer (DDL path)
//	POST /load?table=T&format=csv            bulk-ingest the request body
//	POST /checkpoint {}                      snapshot the catalog, rotate the WAL
//	GET  /tables                             list served tables
//	GET  /stats                              every /metrics counter, gauge and histogram as one JSON object
//	GET  /workload                           captured column heat + top plan shapes
//	GET  /advisor                            layout-drift advice (advisory-only)
//	GET  /events?since=N                     cluster event journal replay (cursor-paged)
//	GET  /history                            in-process metrics history (-history-interval samples)
//	GET  /replication                        per-follower cursors + lag (primary) / apply position (replica)
//	GET  /metrics                            Prometheus text exposition
//	GET  /healthz                            liveness + role health (ok/degraded/fenced)
//	GET  /repl/snapshot                      (primary) replication bootstrap
//	GET  /repl/wal?epoch=E&offset=N          (primary) WAL tail long-poll
//	POST /promote    {}                      flip a replica into a primary (term+1)
//	POST /demote     {"primary": U, "term": N}  fence + follow the new primary
//
// With -data-dir, the catalog (schemas, optimizer-chosen layouts,
// partition data, dictionaries, index definitions) is recovered from the
// directory's snapshot plus WAL on startup, and every insert, bulk load
// and re-layout is logged. -restore=false wipes the directory's state
// instead of recovering. A checkpoint runs automatically when the WAL
// exceeds -checkpoint-wal-mb. A 2xx from an insert or from /load means
// its rows are in the WAL (fsynced under -fsync).
//
// With -replica-of, the process is a read-only replica: it bootstraps its
// catalog from the primary's snapshot (serving empty reads immediately and
// retrying with capped jittered backoff while the primary comes up), tails
// the primary's WAL (applying records through the recovery replay path, so
// its physical design stays bit-identical), serves /query, /prepare and
// /exec like a primary, and answers local writes with 409 naming the
// primary. A replica started without -data-dir keeps no local state — a
// restart re-bootstraps from the primary — and cannot be promoted; adding
// -data-dir gives it promotion storage: POST /promote opens the directory
// fresh, checkpoints the replicated catalog into it and starts serving
// /repl/* as the new primary at the next fencing term. Losing the primary
// never kills a replica: it keeps serving reads, reports "degraded" in
// /healthz and /replication after a few failed polls, and "promote-eligible"
// once the outage outlasts the promotion threshold.
//
// The demo dataset is the paper's example relation R(A..P) with A uniform
// over [0, 1e6), so the Figure 2 query
//
//	curl -s localhost:8080/query -d '{"plan": {"op": "aggregate",
//	  "child": {"op": "scan", "table": "R",
//	            "filter": {"pred": "cmp", "attr": 0, "op": "<", "val": {"int": 10000}},
//	            "cols": [1, 2, 3, 4]},
//	  "aggs": [{"agg": "sum", "arg": {"expr": "col", "attr": 0, "type": "int64"}, "name": "sum_b"}]}}'
//
// selects at selectivity 0.01. With -data-dir, the demo relation is
// built only when the recovered catalog is empty (and -rows > 0), and is
// checkpointed immediately so restarts recover it instead of rebuilding.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		rows        = flag.Int("rows", 1_000_000, "rows of the demo relation R (0 = no demo table)")
		workers     = flag.Int("workers", 0, "shared worker pool size (0 = all cores, 1 = serial execution)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 2x workers)")
		queueWait   = flag.Duration("queue-timeout", time.Second, "max wait for an execution slot before 429")
		dataDir     = flag.String("data-dir", "", "data directory for snapshot + WAL durability (for a replica: promotion storage)")
		restore     = flag.Bool("restore", true, "with -data-dir: recover existing snapshot + WAL (false wipes them)")
		fsync       = flag.Bool("fsync", false, "with -data-dir: fsync WAL commits and snapshots")
		ckptWALMB   = flag.Int("checkpoint-wal-mb", 64, "with -data-dir: WAL size triggering a background checkpoint (<= 0 disables)")
		replicaOf   = flag.String("replica-of", "", "run as a read-only replica of the primary at this URL")
		advisorIvl  = flag.Duration("advisor-interval", time.Minute, "period of the layout-drift advisor over the captured workload (0 = only on GET /advisor)")
		historyIvl  = flag.Duration("history-interval", 10*time.Second, "sampling period of the in-process metrics history behind GET /history (0 = off)")
		driftWarn   = flag.Float64("advisor-drift-warn", service.DefaultDriftWarnRatio, "drift ratio at or above which the advisor logs a warning (<= 0 disables)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window for in-flight requests")
		slowQueryMS = flag.Int("slow-query-ms", 0, "log queries at least this slow with their operator trace (0 = off)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate debug address (empty = off)")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		verbose     = flag.Bool("v", false, "debug logging (includes one line per HTTP request)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	var h slog.Handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}
	slog.SetDefault(slog.New(h))

	cfg := service.Config{
		Workers:      *workers,
		MaxInFlight:  *maxInFlight,
		QueueTimeout: *queueWait,
	}
	slowQuery := time.Duration(*slowQueryMS) * time.Millisecond

	threshold := int64(*ckptWALMB) << 20
	if *ckptWALMB <= 0 {
		threshold = -1
	}

	if *replicaOf != "" {
		runReplica(*addr, *replicaOf, *dataDir, *fsync, threshold, cfg, *drain, *pprofAddr, slowQuery, *advisorIvl, *driftWarn, *historyIvl)
		return
	}

	var (
		db  *core.DB
		mgr *persist.Manager
	)
	if *dataDir != "" {
		var err error
		db, mgr, err = persist.Open(persist.Options{Dir: *dataDir, Fsync: *fsync, Fresh: !*restore})
		if err != nil {
			fatal("opening data dir", err, slog.String("dir", *dataDir))
		}
		defer mgr.Close()
		if n := len(db.Catalog().Names()); n > 0 {
			slog.Info("recovered catalog", slog.Int("tables", n), slog.String("dir", *dataDir))
		}
	} else {
		db = core.Open()
	}

	freshDemo := false
	if len(db.Catalog().Names()) == 0 && *rows > 0 {
		slog.Info("loading demo relation R", slog.Int("rows", *rows), slog.Int("attrs", 16))
		service.LoadDemo(db, *rows)
		freshDemo = true
	}
	if db.Catalog().Has("R") {
		service.DemoWorkload(db) // declared mix, so POST /optimize has something to optimize
	}

	s := service.New(db, cfg)
	defer s.Close()
	s.SetSlowQueryThreshold(slowQuery)
	s.SetDriftWarnRatio(*driftWarn)
	s.StartAdvisor(*advisorIvl)
	if *historyIvl > 0 {
		s.StartHistory(*historyIvl)
	}
	handler := s.Handler()
	if mgr != nil {
		s.AttachPersist(mgr, threshold)
		if freshDemo {
			if _, err := s.Checkpoint(); err != nil {
				fatal("initial checkpoint", err)
			}
		}
		// A durable primary can feed replicas and be demoted after a
		// failover: run it as a Node. The follower id matters only after
		// a demotion, when this node starts acking the new primary.
		node := repl.NewNode(s, repl.NodeConfig{Mgr: mgr, CheckpointWAL: threshold, FollowerID: *addr})
		if err := node.Start(context.Background()); err != nil {
			fatal("starting replication node", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		node.Mount(mux)
		handler = mux
	}

	st := s.Stats()
	slog.Info("served: listening", slog.String("addr", *addr), slog.Int("workers", st.Workers),
		slog.Int("maxInFlight", st.MaxInFlight), slog.Bool("durable", st.Persistent))
	// On a drained shutdown a durable primary checkpoints, so the next
	// start recovers from a snapshot instead of a long WAL replay.
	err := serve(*addr, handler, *drain, *pprofAddr, func() {
		if s.Stats().Persistent {
			if _, err := s.Checkpoint(); err != nil {
				slog.Warn("final checkpoint failed", slog.Any("err", err))
			} else {
				slog.Info("final checkpoint written")
			}
		}
	})
	if err != nil {
		fatal("serving", err)
	}
}

// runReplica starts a read-only replica node: it serves immediately
// (reads return empty results until the first bootstrap lands) while the
// node's tail loop bootstraps and follows the primary with backoff, and
// it mounts /promote and /demote so an operator can fail it over.
func runReplica(addr, primary, dataDir string, fsync bool, threshold int64, cfg service.Config, drain time.Duration, pprofAddr string, slowQuery time.Duration, advisorIvl time.Duration, driftWarn float64, historyIvl time.Duration) {
	s := service.New(core.Open(), cfg)
	defer s.Close()
	s.SetSlowQueryThreshold(slowQuery)
	// A replica's layouts are the primary's (shipped through the WAL), but
	// its read mix is its own: drift advice on a replica tells an operator
	// how far the primary's physical design is from this replica's traffic.
	s.SetDriftWarnRatio(driftWarn)
	s.StartAdvisor(advisorIvl)
	if historyIvl > 0 {
		s.StartHistory(historyIvl)
	}

	// Name this follower by its listen address on the primary's side, so
	// GET /replication and the lag histograms show operator-recognizable ids.
	nodeCfg := repl.NodeConfig{PrimaryURL: primary, CheckpointWAL: threshold, FollowerID: addr}
	if dataDir != "" {
		// Promotion storage: opened fresh at promote time (the replica's
		// authoritative state is the replicated catalog in memory, not
		// whatever the directory held).
		nodeCfg.OpenStorage = func() (*persist.Manager, error) {
			db, mgr, err := persist.Open(persist.Options{Dir: dataDir, Fsync: fsync, Fresh: true})
			if err != nil {
				return nil, err
			}
			_ = db // empty: Fresh wipes the directory
			return mgr, nil
		}
	}
	node := repl.NewNode(s, nodeCfg)
	if err := node.Start(context.Background()); err != nil {
		fatal("starting replica node", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	node.Mount(mux)

	st := s.Stats()
	slog.Info("served: replica listening", slog.String("addr", addr), slog.String("primary", primary),
		slog.Int("workers", st.Workers), slog.Bool("promotable", dataDir != ""))
	// A promoted replica is durable by shutdown time: checkpoint it like
	// a primary so its followers bootstrap from a fresh snapshot.
	err := serve(addr, mux, drain, pprofAddr, func() {
		node.Stop()
		if s.Stats().Persistent {
			if _, err := s.Checkpoint(); err != nil {
				slog.Warn("final checkpoint failed", slog.Any("err", err))
			}
		}
	})
	if err != nil {
		fatal("serving", err)
	}
}

// serve runs the HTTP server with sane timeouts: slowloris protection on
// headers, a generous body window (bulk loads stream for a while), and
// idle-connection reaping. No WriteTimeout — /repl/wal long-polls and
// large query results must not be cut off mid-response.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-
// flight requests get the drain window to finish (then the server closes
// hard), and onDrained runs last — the final-checkpoint hook.
func serve(addr string, handler http.Handler, drain time.Duration, pprofAddr string, onDrained func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if pprofAddr != "" {
		go servePprof(pprofAddr)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	slog.Info("shutting down", slog.Duration("drain", drain))
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		slog.Warn("drain window elapsed, closing connections", slog.Any("err", err))
		_ = srv.Close()
	}
	if onDrained != nil {
		onDrained()
	}
	return nil
}

// servePprof mounts net/http/pprof on its own listener, so profiling
// endpoints never ride on the public API address.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	slog.Info("pprof debug listener", slog.String("addr", addr))
	if err := http.ListenAndServe(addr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Warn("pprof listener failed", slog.Any("err", err))
	}
}

// fatal logs one structured error line and exits non-zero.
func fatal(msg string, err error, args ...any) {
	slog.Error(msg, append([]any{slog.Any("err", err)}, args...)...)
	os.Exit(1)
}
