// Package service turns the single-caller core.DB into a concurrent query
// service: many goroutines — typically HTTP handlers in cmd/served — issue
// queries simultaneously against one database, sharing one process-wide
// morsel-scheduler pool (par.Pool) so that concurrent scans interleave on
// the same workers instead of each spawning its own.
//
// The design follows the offline/online split of serving systems: validate
// and compile a plan once (the expensive, client-agnostic part), then
// answer many concurrent requests from the cached compiled form. Three
// mechanisms make that safe and bounded:
//
//   - MVCC snapshot isolation: every read pins the current catalog
//     version (core.DB.Snapshot) and runs lock-free against it for the
//     whole query, while writers — inserts, bulk loads, re-layouts,
//     replica WAL-apply — serialize on one commit mutex, build the next
//     version copy-on-write and publish it with a single atomic pointer
//     swap, so a re-layout never swaps a relation out from under a
//     running scan and readers never wait on writers;
//   - a prepared-plan cache keyed by (core id, epoch, canonical plan
//     JSON): compiled forms bake partition addresses in, so an entry is
//     only ever reused against the exact catalog version it was compiled
//     for; commits additionally drop the cache wholesale so stale-epoch
//     entries don't linger in the LRU;
//   - admission control: at most MaxInFlight queries execute at once,
//     excess requests queue up to QueueTimeout and are then rejected
//     with ErrOverloaded instead of piling onto the pool.
//
// Determinism is inherited from the engines: results are row-identical to
// a serial core.DB.Query of the same plan against the pinned version,
// which the race tests assert while inserts, loads and re-layouts publish
// new versions mid-flight.
package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/workload"
)

// ErrOverloaded reports that admission control rejected a request because
// MaxInFlight queries were already executing and none finished within
// QueueTimeout.
var ErrOverloaded = errors.New("service: overloaded (admission queue timed out)")

// ErrNoPersistence reports a durability operation (checkpoint) on a
// service with no data directory attached.
var ErrNoPersistence = errors.New("service: no persistence attached (start with a data directory)")

// ErrDurability marks a server-side persistence failure (WAL append or
// checkpoint I/O). Mutations log before they publish: a rejected insert
// or table create was NOT applied and is safe to retry. Bulk-load
// batches report how many rows committed so the stream can resume.
// HTTP maps these to 500, not 400 — the fault is the server's storage,
// not the request.
var ErrDurability = errors.New("service: durability failure")

// ErrReadOnly reports a local write (insert, bulk load, re-layout,
// checkpoint) on a read-only replica. The wrapped message names the
// primary the write belongs on; HTTP maps it to 409.
var ErrReadOnly = errors.New("service: read-only replica")

// ErrFenced reports a write on a fenced node: a primary that observed a
// higher replication term (a replica was promoted over it) and must not
// accept writes anymore, or split-brain would fork the history. The
// wrapped message names the superseding term (and primary, when known);
// HTTP maps it to 409.
var ErrFenced = errors.New("service: fenced stale primary")

// Config sizes the service.
type Config struct {
	// Workers is the shared pool's worker count: 0 means GOMAXPROCS,
	// 1 disables parallel scans (queries still run concurrently, each
	// serial). The pool is shared by every query the service executes.
	Workers int
	// MaxInFlight bounds concurrently executing queries; 0 means
	// 2 × pool workers (enough to keep the pool busy while some queries
	// sit in serial phases) — the queue holds the rest.
	MaxInFlight int
	// QueueTimeout is how long an admitted-over-capacity request waits
	// for a slot before ErrOverloaded; 0 means one second.
	QueueTimeout time.Duration
}

// DB is a concurrency-safe serving wrapper around one core.DB. Create it
// with New, release pool workers with Close.
type DB struct {
	// dbPtr is the wrapped core; atomic because SwapCore (replica
	// bootstrap) replaces it wholesale at runtime. Readers pin an MVCC
	// snapshot off whatever core they load and stay consistent even if a
	// swap lands mid-query — the old core stays alive through their pins.
	dbPtr atomic.Pointer[core.DB]
	pool  *par.Pool
	opt   par.Options

	// commitMu serializes writers: inserts, bulk-load batches, layout
	// optimization, replica WAL-apply, core swaps, and the pin+position
	// step of a checkpoint. Catalog writers hold it while building the
	// next version copy-on-write and publishing it (transact, write.go).
	// Readers never take it — they pin snapshots and run lock-free.
	commitMu sync.Mutex

	// plans caches compiled queries by canonical plan JSON in an LRU
	// capped by entry count. Entries are compiled at most once (the
	// entry's once), readers of the same plan share the compiled form,
	// and the whole cache is dropped when the catalog changes.
	planMu sync.Mutex
	plans  *planLRU

	stmtMu sync.Mutex
	stmts  map[string]*Stmt
	nextID atomic.Uint64

	sem          chan struct{}
	queueTimeout time.Duration

	// Durability (nil persist = in-memory only). Loggers run under
	// commitMu, before the version they describe publishes; Checkpoint
	// pins a snapshot under commitMu and then serializes it with no lock
	// held, so queries and writes both proceed while the snapshot file is
	// written. The pointer and the
	// threshold are atomic because failover changes them at runtime: a
	// promoted replica attaches fresh storage, a demoted primary detaches
	// its now-stale one.
	persistMgr    atomic.Pointer[persist.Manager]
	ckptThreshold atomic.Int64
	ckptMu        sync.Mutex  // serializes checkpoints
	ckptPending   atomic.Bool // one background checkpoint goroutine at a time

	// Replication role: primary or read-only replica, plus the fencing
	// term ordering primaries across failovers. Unlike the seed design
	// (set once before serving), the role changes at runtime — promotion
	// flips a replica writable, fencing freezes a superseded primary — so
	// every access goes through roleMu.
	roleMu sync.RWMutex
	role   roleState
	repl   replProgress

	// inFlight is the number of queries holding an admission slot.
	inFlight atomic.Int64

	// Observability: the metric registry (built once in New), the
	// slow-query threshold in nanoseconds (0 = disarmed; non-zero also
	// arms tracing on every read so the logged operator numbers are
	// real), the structured logger, and the query-id sequence the HTTP
	// middleware draws X-Query-Id values from (client-supplied ids that
	// validate are kept instead).
	metrics   *svcMetrics
	slowNanos atomic.Int64
	logPtr    atomic.Pointer[slog.Logger]
	queryIDs  atomic.Uint64
	start     time.Time

	// Event journal (events.go): the bounded ring behind GET /events,
	// plus the once-per-second limiter on overload events. The metrics
	// history ring (history.go) lives behind GET /history; followers is
	// the primary's per-follower replication progress registry behind
	// GET /replication, fed by X-Repl-* ack headers on WAL tail polls.
	journal      *obs.Journal
	lastOverload atomic.Int64
	history      history
	followMu     sync.Mutex
	followMap    map[string]*followerInfo

	// Workload telemetry: always-on capture of per-column access
	// frequencies and plan-shape counts. Footprints are resolved once
	// per compilation; the per-execution cost is Footprint.Record —
	// atomic adds only.
	// The advisor (Advise, StartAdvisor) converts the captured mix into
	// the optimizer's declaration form and prices layout drift; it never
	// relays anything.
	capture       *workload.Capture
	heatTables    sync.Map // table name -> struct{}{}: heat metrics registered
	advisorWarn   atomic.Uint64
	advisorStop   chan struct{}
	advisorStopMu sync.Mutex
}

// roleState is the node's replication identity. term is the fencing
// token: it only ever rises, a promotion takes term+1, and a primary
// that observes a higher term than its own has been superseded and must
// fence itself (reject writes) instead of split-braining.
type roleState struct {
	readOnly   bool
	primaryURL string // replica: the primary it follows
	term       uint64
	fenced     bool
	fencedBy   string // superseding primary's URL, when known
}

// replProgress holds the replication levels behind GET /replication and
// the lag gauges: the follower count on a primary, apply progress and lag
// on a replica.
type replProgress struct {
	followers  atomic.Int64 // primary: WAL tail streams currently connected
	epoch      atomic.Uint64
	offset     atomic.Int64
	records    atomic.Int64
	lagBytes   atomic.Int64
	lagRecords atomic.Int64
	state      atomic.Value // replica: tail-loop state machine (string)
	// visibleLagNanos is the replica's last measured commit-to-visible
	// lag: primary commit wall-clock time (shipped on the tail response)
	// to local apply-publish, 0 when unknown (no stamp covered the chunk).
	visibleLagNanos atomic.Int64
}

// planLRU is the compiled-plan cache: most recent at the list front,
// eviction from the back. Alongside the full-plan keys it tracks how many
// distinct normalized shapes (plan.Normalize — constants stripped) the
// entries collapse to: keys must embed constants because compiled forms
// bake them into their fused loops, so a parameter-sweeping workload costs
// one entry per distinct constant, and keys ≫ shapes is the signature of
// that blowup. All access is under planMu.
type planLRU struct {
	cap    int
	ll     *list.List
	m      map[cacheKey]*list.Element
	shapes map[digest]int // normalized shape key → entries holding it
}

type planLRUEntry struct {
	key   cacheKey
	shape digest
	entry *cachedPlan
}

func newPlanLRU(capacity int) *planLRU {
	return &planLRU{
		cap:    capacity,
		ll:     list.New(),
		m:      make(map[cacheKey]*list.Element, capacity),
		shapes: map[digest]int{},
	}
}

// get returns the cached entry and marks it most recently used.
func (c *planLRU) get(key cacheKey) (*cachedPlan, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planLRUEntry).entry, true
}

// add inserts a new entry as most recently used and returns the number of
// entries evicted to stay within the cap.
func (c *planLRU) add(key cacheKey, shape digest, entry *cachedPlan) int {
	c.m[key] = c.ll.PushFront(&planLRUEntry{key: key, shape: shape, entry: entry})
	c.shapes[shape]++
	evicted := 0
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		kv := back.Value.(*planLRUEntry)
		c.ll.Remove(back)
		delete(c.m, kv.key)
		c.dropShape(kv.shape)
		evicted++
	}
	return evicted
}

// remove drops key if it still maps to entry.
func (c *planLRU) remove(key cacheKey, entry *cachedPlan) {
	if el, ok := c.m[key]; ok && el.Value.(*planLRUEntry).entry == entry {
		c.ll.Remove(el)
		delete(c.m, key)
		c.dropShape(el.Value.(*planLRUEntry).shape)
	}
}

func (c *planLRU) dropShape(shape digest) {
	if n := c.shapes[shape] - 1; n > 0 {
		c.shapes[shape] = n
	} else {
		delete(c.shapes, shape)
	}
}

// clear drops everything (DDL invalidation).
func (c *planLRU) clear() {
	c.ll.Init()
	clear(c.m)
	clear(c.shapes)
}

type cachedPlan struct {
	once sync.Once
	prep *jit.Prepared
	err  error
	// shape/shapeJSON carry the normalized-plan identity from lookup to
	// the compile closure; fp is the workload-capture footprint resolved
	// alongside compilation, so every later execution records through
	// precomputed atomic-counter pointers.
	shape     digest
	shapeJSON []byte
	fp        *workload.Footprint
}

// Stmt is a prepared statement handle: a validated plan bound to the
// service, executed through DB.Exec. The compiled form lives in the
// plan cache, so statements stay valid (and recompile transparently)
// across catalog changes.
type Stmt struct {
	ID   string
	Cols []plan.Column
	node plan.Node
	key  digest
}

// New wraps db in a serving layer. The service owns a fresh shared pool
// sized by cfg.Workers and installs it on db (SetParOptions), so direct
// db.Query calls made while the service is idle use the same pool.
func New(db *core.DB, cfg Config) *DB {
	opt := par.Serial()
	var pool *par.Pool
	if cfg.Workers != 1 {
		pool = par.NewPool(cfg.Workers)
		opt = par.WithPool(pool)
	}
	db.SetParOptions(opt)
	inFlight := cfg.MaxInFlight
	if inFlight <= 0 {
		inFlight = 2 * opt.WorkerCount()
	}
	timeout := cfg.QueueTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	s := &DB{
		pool:         pool,
		opt:          opt,
		plans:        newPlanLRU(defaultPlanCacheSize),
		stmts:        map[string]*Stmt{},
		sem:          make(chan struct{}, inFlight),
		queueTimeout: timeout,
		start:        time.Now(),
		capture:      workload.NewCapture(0),
		journal:      obs.NewJournal(obs.DefaultJournalSize),
		followMap:    map[string]*followerInfo{},
	}
	s.dbPtr.Store(db)
	// Every node starts at term 1; replicas adopt the primary's term on
	// bootstrap and a promotion takes term+1.
	s.role.term = 1
	s.initMetrics()
	return s
}

// AttachPersist wires a durability manager into the service: inserts,
// bulk loads and re-layout decisions are WAL-logged under the commit
// mutex, and a background checkpoint runs whenever the WAL exceeds
// walCheckpointBytes (0 means 64 MB; negative disables the automatic
// trigger — /checkpoint still works). Called before serving starts, and
// again by promotion when a replica becomes a durable primary.
func (s *DB) AttachPersist(m *persist.Manager, walCheckpointBytes int64) {
	if walCheckpointBytes == 0 {
		walCheckpointBytes = 64 << 20
	}
	s.ckptThreshold.Store(walCheckpointBytes)
	m.SetMetrics(s.metrics.fsyncSeconds, s.metrics.walAppended)
	s.persistMgr.Store(m)
}

// DetachPersist unhooks the durability manager — the demotion path: a
// primary that now follows someone else must stop logging, since its
// local snapshot+WAL no longer describe the authoritative history. It
// returns the detached manager for the caller to close.
func (s *DB) DetachPersist() *persist.Manager {
	return s.persistMgr.Swap(nil)
}

// mgr returns the attached durability manager (nil = in-memory only).
func (s *DB) mgr() *persist.Manager { return s.persistMgr.Load() }

// Close stops the advisor and history loops and the shared pool.
// In-flight queries finish (a closed pool degrades to inline serial
// execution); new queries keep working serially.
func (s *DB) Close() {
	s.StopAdvisor()
	s.StopHistory()
	if s.pool != nil {
		s.pool.Close()
	}
}

// Unwrap returns the wrapped core.DB for single-threaded setup (loading
// tables, declaring workloads) before serving starts.
func (s *DB) Unwrap() *core.DB { return s.core() }

// core returns the currently wrapped core.DB. Callers that need a
// consistent view load it once and pin a snapshot off that instance.
func (s *DB) core() *core.DB { return s.dbPtr.Load() }

// digest is the SHA-256 of a canonical plan encoding. Remote plans key
// compiled code, so the hash has to stay collision-resistant.
type digest [sha256.Size]byte

// cacheKey scopes a plan digest to one catalog version: compiled plans
// bake partition addresses and dictionary bounds in, so an entry must
// never be reused across epochs — nor across cores (SwapCore restarts
// epochs at 1, which is why the process-unique core id is in the key).
type cacheKey struct {
	core, epoch uint64
	plan        digest
}

// admit reserves an execution slot, waiting up to the queue timeout.
func (s *DB) admit() (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.queued.Inc()
		wait := time.Now()
		t := time.NewTimer(s.queueTimeout)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
			s.metrics.queueWait.ObserveSince(wait)
		case <-t.C:
			s.metrics.rejected.Inc()
			s.metrics.queueWait.ObserveSince(wait)
			s.noteOverload()
			return nil, ErrOverloaded
		}
	}
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
	}, nil
}

// Prepare validates a plan and registers it as a statement. Compilation
// happens on first execution and is shared with identical ad-hoc queries.
func (s *DB) Prepare(p plan.Node) (*Stmt, error) {
	key, err := planKey(p)
	if err != nil {
		return nil, err
	}
	if _, ok := p.(plan.Insert); ok {
		return nil, fmt.Errorf("service: insert plans cannot be prepared")
	}
	snap := s.core().Snapshot()
	err = plan.Check(p, snap.Catalog())
	var cols []plan.Column
	if err == nil {
		cols = plan.Output(p, snap.Catalog())
	}
	snap.Release()
	if err != nil {
		return nil, err
	}
	st := &Stmt{
		ID:   fmt.Sprintf("s%d", s.nextID.Add(1)),
		Cols: cols,
		node: p,
		key:  key,
	}
	s.stmtMu.Lock()
	if len(s.stmts) >= maxStmts {
		s.stmtMu.Unlock()
		return nil, fmt.Errorf("service: %d prepared statements open, close some first", maxStmts)
	}
	s.stmts[st.ID] = st
	s.stmtMu.Unlock()
	return st, nil
}

// maxStmts bounds the statement registry. Unlike the plan cache, entries
// cannot be silently evicted — clients hold the ids — so Prepare rejects
// past the cap instead; each retained Stmt keeps its full decoded plan.
const maxStmts = 1024

// Stmt returns a registered statement by id.
func (s *DB) Stmt(id string) (*Stmt, bool) {
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	st, ok := s.stmts[id]
	return st, ok
}

// Exec executes a prepared statement by id.
func (s *DB) Exec(id string) (*result.Set, error) {
	st, ok := s.Stmt(id)
	if !ok {
		return nil, fmt.Errorf("service: unknown statement %q", id)
	}
	res, _, err := s.runOpts(st.node, st.key, QueryOpts{})
	return res, err
}

// CloseStmt drops a statement handle (the cached compiled form stays,
// shared with identical plans, until the next catalog change).
func (s *DB) CloseStmt(id string) bool {
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	if _, ok := s.stmts[id]; !ok {
		return false
	}
	delete(s.stmts, id)
	return true
}

// QueryOpts selects per-request execution options.
type QueryOpts struct {
	// Explain returns the per-operator execution trace alongside the
	// result (EXPLAIN ANALYZE: the plan runs for real, with counters).
	Explain bool
	// QueryID is the request's correlation id (the X-Query-Id the HTTP
	// layer assigned or accepted). Inserts stamp it onto the WAL commit,
	// so the same id resurfaces in the primary's commit log line, the
	// shipped tail's headers and every replica's apply log line.
	QueryID string
}

// QueryEx validates, compiles (or reuses) and executes a plan. Read plans
// run under the shared read lock; Insert plans take the write lock and
// invalidate the plan cache. Results are row-identical to core.DB.Query.
// When o.Explain is set it also returns the filled execution trace (nil
// for inserts run without tracing support, never nil for traced reads).
func (s *DB) QueryEx(p plan.Node, o QueryOpts) (*result.Set, *obs.QueryTrace, error) {
	// Only reads go through the plan cache; an insert needs no key.
	var key digest
	if _, ok := p.(plan.Insert); !ok {
		var err error
		if key, err = planKey(p); err != nil {
			return nil, nil, err
		}
	}
	return s.runOpts(p, key, o)
}

// runOpts admits, executes and accounts one request. The end-to-end
// latency histograms start before admission (queue wait is part of what
// the client sees); the slow-query threshold applies to time inside
// execution only.
func (s *DB) runOpts(p plan.Node, key digest, o QueryOpts) (*result.Set, *obs.QueryTrace, error) {
	e2e := time.Now()
	release, err := s.admit()
	if err != nil {
		s.metrics.latRejected.ObserveSince(e2e)
		return nil, nil, err
	}
	defer release()
	start := time.Now()

	var res *result.Set
	var tr *obs.QueryTrace
	if _, ok := p.(plan.Insert); ok {
		res, err = s.runInsert(p, o.QueryID)
	} else {
		// A non-zero slow-query threshold arms tracing on every read, so
		// a query that turns out slow logs its real operator numbers.
		armed := o.Explain || s.slowNanos.Load() > 0
		res, tr, err = s.runRead(p, key, armed)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.metrics.failed.Inc()
		s.metrics.latFailed.ObserveSince(e2e)
		return nil, nil, err
	}
	s.metrics.queries.Inc()
	s.metrics.rows.Add(int64(res.Len()))
	s.metrics.latOK.ObserveSince(e2e)
	if slow := s.slowNanos.Load(); slow > 0 && elapsed.Nanoseconds() >= slow {
		s.logSlowQuery(p, elapsed, tr)
	}
	if !o.Explain {
		tr = nil
	}
	return res, tr, nil
}

// runRead executes a read plan through the plan cache's compiled jit
// form, tracing when armed. It pins an MVCC snapshot for the whole
// compile+execute and runs lock-free against it: concurrent commits
// publish new versions without this query ever observing them.
func (s *DB) runRead(p plan.Node, key digest, armed bool) (*result.Set, *obs.QueryTrace, error) {
	db := s.core()
	snap := db.Snapshot()
	defer snap.Release()
	cat := snap.Catalog()
	ckey := cacheKey{core: db.ID(), epoch: snap.Epoch(), plan: key}
	entry := s.lookup(p, ckey)
	entry.once.Do(func() {
		if err := plan.Check(p, cat); err != nil {
			entry.err = err
			return
		}
		entry.prep = jit.PrepareOpt(p, cat, s.opt)
		// Workload capture pays its resolution cost here, once per
		// compilation: every execution of this entry then records
		// through precomputed atomic-counter pointers.
		entry.fp = s.capture.Resolve(cat, entry.prep.Accesses(),
			string(entry.shape[:]), entry.shapeJSON, p)
		s.registerHeat(entry.prep.Accesses())
	})
	if entry.err != nil {
		// Invalid plans are not worth a cache slot: a stream of distinct
		// bad requests must not pin memory.
		s.forget(ckey, entry)
		return nil, nil, entry.err
	}
	var tr *obs.QueryTrace
	if armed {
		tr = entry.prep.NewTrace()
		tr.Epoch = snap.Epoch()
	}
	res := entry.prep.ExecTraced(tr)
	entry.fp.Record()
	return res, tr, nil
}

// defaultPlanCacheSize bounds the plan cache between catalog changes, so
// a client streaming distinct plans (e.g. sweeping a filter constant)
// cannot grow service memory without bound. The cache is an optimization:
// an evicted plan just recompiles.
const defaultPlanCacheSize = 1024

// lookup returns the cache entry for key, creating it if needed. Entries
// are created under planMu and compiled through their once. New entries are
// tagged with their normalized shape, computed outside the cache lock;
// misses pay one extra marshal, hits none.
func (s *DB) lookup(p plan.Node, key cacheKey) *cachedPlan {
	s.planMu.Lock()
	if entry, ok := s.plans.get(key); ok {
		s.planMu.Unlock()
		s.metrics.planHits.Inc()
		return entry
	}
	s.planMu.Unlock()
	shape, shapeJSON := shapeOf(p, key.plan)

	s.planMu.Lock()
	defer s.planMu.Unlock()
	entry, ok := s.plans.get(key) // re-check: another miss may have raced us
	if ok {
		s.metrics.planHits.Inc()
		return entry
	}
	s.metrics.planMisses.Inc()
	entry = &cachedPlan{shape: shape, shapeJSON: shapeJSON}
	if evicted := s.plans.add(key, shape, entry); evicted > 0 {
		s.metrics.planEvictions.Add(int64(evicted))
	}
	return entry
}

// shapeOf fingerprints the plan with constants normalized out and also
// returns the normalized encoding (the workload capture retains it for
// display). On a marshal failure the full key doubles as the shape —
// over-counting shapes is safer than conflating them.
func shapeOf(p plan.Node, fallback digest) (digest, []byte) {
	sum, data, err := hashPlan(plan.Normalize(p), true)
	if err != nil {
		return fallback, nil
	}
	return sum, data
}

// forget drops a cache entry that turned out not to be worth keeping
// (validation failures), if it is still the one the key maps to.
func (s *DB) forget(key cacheKey, entry *cachedPlan) {
	s.planMu.Lock()
	s.plans.remove(key, entry)
	s.planMu.Unlock()
}

// invalidate drops every cached plan. Called after a commit publishes a
// new catalog version (and on core swaps): epoch-scoped keys already
// prevent cross-version reuse, this just frees the dead entries.
func (s *DB) invalidate() {
	s.planMu.Lock()
	s.plans.clear()
	s.planMu.Unlock()
}

// Checkpoint snapshots the full catalog to the data directory and
// truncates the WAL to the records not yet in the snapshot. Only the
// setup holds the commit mutex — noting the WAL's committed position and
// pinning the current version; the snapshot file is then
// serialized from that pinned version with NO lock held, so both queries
// and writes proceed for the whole (possibly long) write. Writes that
// commit meanwhile land after the noted position and survive in the
// successor WAL. Concurrent checkpoints serialize.
func (s *DB) Checkpoint() (persist.CheckpointInfo, error) {
	if err := s.writeGuard(); err != nil {
		return persist.CheckpointInfo{}, err
	}
	m := s.mgr()
	if m == nil {
		return persist.CheckpointInfo{}, ErrNoPersistence
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.Event(EventCheckpointBegin, "checkpoint started", nil)
	s.commitMu.Lock()
	pos := m.BeginCheckpoint()
	snap := s.core().Snapshot()
	s.commitMu.Unlock()
	defer snap.Release()
	start := time.Now()
	info, err := m.CheckpointFrom(snap.Catalog(), pos)
	if err != nil {
		s.metrics.persistErrs.Inc()
		return info, err
	}
	s.metrics.ckptSeconds.ObserveSince(start)
	s.metrics.checkpoints.Inc()
	s.Event(EventCheckpointEnd, "snapshot written, WAL rotated", map[string]string{
		"snapshotBytes":   strconv.FormatInt(info.SnapshotBytes, 10),
		"walBytesDropped": strconv.FormatInt(info.WALBytes, 10),
		"walEpoch":        strconv.FormatUint(m.Epoch(), 10),
	})
	return info, nil
}

// maybeCheckpointAsync starts a background checkpoint when the WAL has
// outgrown the configured threshold. At most one background checkpoint
// runs at a time; failures are counted, not fatal (the WAL still holds
// the data).
func (s *DB) maybeCheckpointAsync() {
	m := s.mgr()
	if m == nil || s.ckptThreshold.Load() <= 0 || m.WALSize() < s.ckptThreshold.Load() {
		return
	}
	if !s.ckptPending.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptPending.Store(false)
		_, _ = s.Checkpoint()
	}()
}

// AddWorkload declares workload entries for the optimizer (commit mutex:
// it mutates the core's shared workload mix, which OptimizeLayouts reads
// under the same mutex).
func (s *DB) AddWorkload(name string, p plan.Node, frequency float64) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.core().AddWorkload(name, p, frequency)
}

// TableInfo describes one served table.
type TableInfo struct {
	Name   string     `json:"name"`
	Rows   int        `json:"rows"`
	Layout string     `json:"layout"`
	Attrs  []AttrInfo `json:"attrs"`
}

// AttrInfo is one attribute of a served table.
type AttrInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Tables lists the catalog from a pinned snapshot.
func (s *DB) Tables() []TableInfo {
	snap := s.core().Snapshot()
	defer snap.Release()
	c := snap.Catalog()
	names := c.Names()
	out := make([]TableInfo, 0, len(names))
	for _, name := range names {
		rel := c.Table(name)
		attrs := make([]AttrInfo, rel.Schema.Width())
		for i, a := range rel.Schema.Attrs {
			attrs[i] = AttrInfo{Name: a.Name, Type: a.Type.String()}
		}
		out = append(out, TableInfo{
			Name:   name,
			Rows:   rel.Rows(),
			Layout: rel.Layout.Kind(),
			Attrs:  attrs,
		})
	}
	return out
}

// Stats is the in-process summary the benchmark harness and cmd/served
// read. Each count is one read of a collector in the registry that
// GET /metrics and GET /stats render; the rest are configuration.
type Stats struct {
	Queued        int64  // waited for an admission slot
	Rejected      int64  // admission timeouts (ErrOverloaded)
	PlanCacheHits int64  // executions reusing a compiled plan
	PlanCacheMiss int64  // executions that compiled
	PlanEvictions int64  // LRU evictions (not DDL flushes)
	Epoch         uint64 // currently published MVCC catalog version
	Checkpoints   int64  // completed checkpoints
	Workers       int    // shared pool size (1 = serial)
	MaxInFlight   int    // admission bound
	Persistent    bool   // durability attached
}

// Stats reads the summary.
func (s *DB) Stats() Stats {
	m := s.metrics
	return Stats{
		Queued:        m.queued.Value(),
		Rejected:      m.rejected.Value(),
		PlanCacheHits: m.planHits.Value(),
		PlanCacheMiss: m.planMisses.Value(),
		PlanEvictions: m.planEvictions.Value(),
		Epoch:         s.core().Epoch(),
		Checkpoints:   m.checkpoints.Value(),
		Workers:       s.opt.WorkerCount(),
		MaxInFlight:   cap(s.sem),
		Persistent:    s.mgr() != nil,
	}
}

// keyBufs holds the buffers plans are encoded into to be hashed.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxKeyBuf is the largest encoding buffer worth keeping: remote plans can
// be megabytes, and the pool should not pin one of those per P.
const maxKeyBuf = 64 << 10

// hashPlan digests the plan's canonical JSON encoding; keep asks for a
// copy of the encoding as well.
func hashPlan(p plan.Node, keep bool) (sum digest, enc []byte, err error) {
	buf := keyBufs.Get().(*[]byte)
	data, err := plan.AppendNode((*buf)[:0], p)
	if err == nil {
		sum = sha256.Sum256(data)
		if keep {
			enc = bytes.Clone(data)
		}
	}
	if cap(data) <= maxKeyBuf {
		*buf = data
		keyBufs.Put(buf)
	}
	return sum, enc, err
}

// planKey computes the cache key: a digest of the plan's canonical JSON
// encoding. Hashing keeps per-entry key memory constant — remote plans
// can be megabytes — while equivalent plans still collide onto one entry.
func planKey(p plan.Node) (digest, error) {
	sum, _, err := hashPlan(p, false)
	return sum, err
}
