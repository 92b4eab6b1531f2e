package service

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Replication support. The service is role-agnostic: a primary is a
// normal read/write service whose WAL the repl package ships, a replica
// is the same service flipped read-only whose catalog is mutated solely
// through ApplyReplicated — the exact record-replay path recovery uses,
// applied copy-on-write and published as one MVCC version per chunk, so
// a replica serves /query, /prepare and /exec exactly like a primary
// (reads lock-free on pinned snapshots) while staying bit-identical to
// it at equal WAL offsets.
//
// Failover makes the role dynamic. Primaries are ordered by a fencing
// term: promotion flips a replica writable at term+1, and any primary
// that observes a higher term than its own — via the X-Repl-Term token
// on /repl/* requests, or an explicit demote — fences itself: writes are
// rejected with ErrFenced instead of forking the history (split-brain).
// All role transitions go through the methods below under roleMu.

// Replica tail-loop states, published by repl.Replica through
// SetReplicaState and surfaced in /replication and /healthz.
const (
	// ReplStateBootstrapping: fetching the initial snapshot.
	ReplStateBootstrapping = "bootstrapping"
	// ReplStateStreaming: tailing the primary's WAL normally.
	ReplStateStreaming = "streaming"
	// ReplStateDegraded: consecutive failures talking to the primary;
	// reads still serve, retries back off.
	ReplStateDegraded = "degraded"
	// ReplStateResyncing: re-fetching the snapshot after an epoch
	// rotation (410) or a persistently unusable tail.
	ReplStateResyncing = "resyncing"
	// ReplStatePromoteEligible: the primary has been unreachable past
	// the promotion threshold — an operator (or external coordinator)
	// may POST /promote.
	ReplStatePromoteEligible = "promote-eligible"
)

// SetReadOnly flips the service into replica mode: local writes
// (inserts, bulk loads, re-layouts, checkpoints) are rejected with
// ErrReadOnly naming the primary. Called before serving starts, and by
// demotion at runtime.
func (s *DB) SetReadOnly(primaryURL string) {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.role.readOnly = true
	s.role.primaryURL = primaryURL
}

// PrimaryURL returns the primary this replica follows ("" on a primary).
func (s *DB) PrimaryURL() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.role.primaryURL
}

// Term returns the node's current fencing term.
func (s *DB) Term() uint64 {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.role.term
}

// AdoptTerm raises the node's term to t if higher — the normal
// propagation path: replicas adopt the term their primary reports. A
// raise is journaled (events fire after roleMu is released: the journal
// stamp re-reads the term through it).
func (s *DB) AdoptTerm(t uint64) {
	s.roleMu.Lock()
	raised := t > s.role.term
	if raised {
		s.role.term = t
	}
	s.roleMu.Unlock()
	if raised {
		s.Event(EventTermAdopt, "adopted higher term from primary",
			map[string]string{"term": strconv.FormatUint(t, 10)})
	}
}

// Promote flips the node into primary mode at the given term: writes are
// accepted, fencing state is cleared. The repl.Node drives this after
// stopping the tail loop and draining what the old primary could still
// serve.
func (s *DB) Promote(term uint64) {
	s.roleMu.Lock()
	s.role = roleState{term: term}
	s.roleMu.Unlock()
	s.metrics.promotions.Inc()
	s.Event(EventPromote, "promoted to primary",
		map[string]string{"term": strconv.FormatUint(term, 10)})
}

// Fence freezes a superseded primary: term rises to at least term, and
// every write from now on fails with ErrFenced naming the superseding
// primary (when known). Reads keep serving. Fencing a replica is
// harmless — it is already read-only — and the flag clears on its next
// successful bootstrap.
func (s *DB) Fence(term uint64, by string) {
	s.roleMu.Lock()
	if term > s.role.term {
		s.role.term = term
	}
	newly := !s.role.fenced
	s.role.fenced = true
	if by != "" {
		s.role.fencedBy = by
	}
	s.roleMu.Unlock()
	if newly {
		s.metrics.fences.Inc()
		s.Event(EventFence, "fenced: superseded by a higher term", map[string]string{
			"term": strconv.FormatUint(term, 10),
			"by":   by,
		})
	}
}

// Fenced reports whether the node has been fenced, and by whom.
func (s *DB) Fenced() (bool, string) {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.role.fenced, s.role.fencedBy
}

// ClearFence drops the fenced flag — called when a demoted node finishes
// bootstrapping from the new primary and is a consistent replica again.
func (s *DB) ClearFence() {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.role.fenced = false
	s.role.fencedBy = ""
}

// writeGuard rejects local mutations on nodes that must not accept them:
// fenced (superseded) primaries and read-only replicas.
func (s *DB) writeGuard() error {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	if s.role.fenced {
		if s.role.fencedBy != "" {
			return fmt.Errorf("%w: superseded by primary %s at term %d",
				ErrFenced, s.role.fencedBy, s.role.term)
		}
		return fmt.Errorf("%w: superseded at term %d", ErrFenced, s.role.term)
	}
	if s.role.readOnly {
		return fmt.Errorf("%w: writes go to the primary at %s", ErrReadOnly, s.role.primaryURL)
	}
	return nil
}

// SwapCore replaces the wrapped database wholesale — the replica
// bootstrap path, installing the catalog restored from the primary's
// snapshot. It serializes with writers on the commit mutex, re-installs
// the shared pool on the new core and drops every cached plan. Queries
// running against the old core finish on their pinned snapshots — the
// old core stays alive through those pins, and the plan-cache key's
// core id keeps its epochs from colliding with the new core's.
func (s *DB) SwapCore(db *core.DB) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	db.SetParOptions(s.opt)
	s.dbPtr.Store(db)
	s.invalidate()
}

// ApplyReplicated applies a chunk of CRC-framed WAL records shipped from
// the primary. The whole chunk builds one copy-on-write version under
// the commit mutex and publishes with a single atomic swap, so however
// large the chunk, concurrent replica queries run lock-free on the prior
// version and never observe a half-applied chunk. It consumes whole
// frames only and returns how many bytes and mutation records were
// applied: a partial trailing frame (a torn stream) is left for the
// caller to re-request from offset+consumed. A CRC failure or an epoch
// marker that does not match epoch stops the apply with an error; the
// already-applied prefix still publishes and is reported.
func (s *DB) ApplyReplicated(chunk []byte, epoch uint64) (consumed, applied int, err error) {
	s.transact(func(tx *core.WriteTxn) bool {
		for consumed < len(chunk) {
			body, n, ferr := persist.ParseFrame(chunk[consumed:])
			if ferr != nil {
				err = ferr
				break
			}
			if n == 0 {
				break // torn tail: no complete frame in the remainder
			}
			if e, isEpoch := persist.EpochRecord(body); isEpoch {
				if e != epoch {
					err = fmt.Errorf("service: shipped WAL carries epoch %d, following %d", e, epoch)
					break
				}
			} else if aerr := persist.ApplyRecordTo(tx, body); aerr != nil {
				err = aerr
				break
			} else {
				applied++
			}
			consumed += n
		}
		return applied > 0
	})
	return consumed, applied, err
}

// FollowerDelta adjusts the primary's connected-follower gauge (+1 when
// a WAL tail stream attaches, -1 when it detaches).
func (s *DB) FollowerDelta(d int64) { s.repl.followers.Add(d) }

// followerInfo is the primary's view of one follower, fed by the
// X-Repl-* ack headers its tail polls carry. All fields under followMu.
type followerInfo struct {
	id         string
	epoch      uint64
	offset     int64
	records    int64
	lagSeconds float64 // last reported commit-to-visible lag (0 = unknown)
	resyncs    int64
	polls      int64
	lastSeen   time.Time
	hist       *obs.Histogram // db_repl_visible_lag_seconds{follower=id}
}

// maxTrackedFollowers bounds the registry (and the per-follower metric
// cardinality); ids past the cap lump into follower="other".
const maxTrackedFollowers = 64

// followerLocked returns the registry entry for id, creating it (and its
// lag histogram) on first sight. Caller holds followMu.
func (s *DB) followerLocked(id string) *followerInfo {
	if f, ok := s.followMap[id]; ok {
		return f
	}
	if len(s.followMap) >= maxTrackedFollowers {
		id = "other"
		if f, ok := s.followMap[id]; ok {
			return f
		}
	}
	f := &followerInfo{
		id: id,
		hist: s.metrics.reg.Histogram("db_repl_visible_lag_seconds",
			"Primary: per-follower commit-to-visible lag (primary WAL commit to replica apply-publish), as reported on tail polls.",
			nil, obs.Labels{"follower": id}),
	}
	s.followMap[id] = f
	return f
}

// ObserveFollowerPoll records one follower tail poll: its acked apply
// position and — when the follower could measure it — the
// commit-to-visible lag of its latest applied chunk, fed into the
// per-follower histogram.
func (s *DB) ObserveFollowerPoll(id string, epoch uint64, offset, records, visibleLagNanos int64) {
	if id == "" {
		return
	}
	s.followMu.Lock()
	f := s.followerLocked(id)
	f.epoch, f.offset, f.records = epoch, offset, records
	f.polls++
	f.lastSeen = time.Now()
	hist := f.hist
	if visibleLagNanos > 0 {
		f.lagSeconds = float64(visibleLagNanos) / 1e9
	}
	s.followMu.Unlock()
	if visibleLagNanos > 0 {
		hist.Observe(float64(visibleLagNanos) / 1e9)
	}
}

// NoteFollowerSync counts a snapshot fetch by a follower — its initial
// bootstrap and every epoch-rotation resync.
func (s *DB) NoteFollowerSync(id string) {
	if id == "" {
		return
	}
	s.followMu.Lock()
	f := s.followerLocked(id)
	f.resyncs++
	f.lastSeen = time.Now()
	s.followMu.Unlock()
}

// FollowerStatus is one follower's replication progress as the primary
// sees it (GET /replication).
type FollowerStatus struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
	// Offset/Records: the follower's acked apply position. Lag fields
	// are computed against the primary's current committed position;
	// bytes/records are -1 when the follower is on another epoch (its
	// offsets don't compare until it resyncs).
	Offset     int64   `json:"offset"`
	Records    int64   `json:"records"`
	LagBytes   int64   `json:"lagBytes"`
	LagRecords int64   `json:"lagRecords"`
	LagSeconds float64 `json:"lagSeconds"` // last reported commit-to-visible lag (0 = unknown)
	Resyncs    int64   `json:"resyncs"`
	Polls      int64   `json:"polls"`
	LastSeenMs int64   `json:"lastSeenMs"` // ms since the follower's last poll/sync
}

// ReplicationReport is the GET /replication payload: the node's role and
// fencing state, the primary-side commit position and per-follower
// progress, and (on a replica) its own apply position and lag.
type ReplicationReport struct {
	Role     string `json:"role"`
	Term     uint64 `json:"term"`
	Fenced   bool   `json:"fenced"`
	FencedBy string `json:"fencedBy,omitempty"` // superseding primary, when known

	// Primary view: the WAL epoch, committed prefix, and last stamped
	// commit (sequence, wall-clock time, correlation id).
	WALEpoch        uint64 `json:"walEpoch,omitempty"`
	Committed       int64  `json:"committed,omitempty"`
	Records         int64  `json:"records,omitempty"`
	LastCommitSeq   int64  `json:"lastCommitSeq,omitempty"`
	LastCommitNanos int64  `json:"lastCommitNanos,omitempty"`
	LastCommitID    string `json:"lastCommitId,omitempty"`

	Followers []FollowerStatus `json:"followers"`

	// Replica view. The counters always render, so a caught-up replica
	// reads lag 0. Syncs (snapshot bootstraps, >1 means resyncs) and
	// Retries keep their counts after a promotion.
	Primary      string  `json:"primary,omitempty"`
	State        string  `json:"state,omitempty"`
	ApplyEpoch   uint64  `json:"applyEpoch"`
	ApplyOffset  int64   `json:"applyOffset"`
	ApplyRecords int64   `json:"applyRecords"`
	LagBytes     int64   `json:"lagBytes"`
	LagRecords   int64   `json:"lagRecords"`
	VisibleLagMs float64 `json:"visibleLagMs"` // last measured commit-to-visible lag (0 = unknown)
	Syncs        int64   `json:"syncs"`
	Retries      int64   `json:"retries"`
}

// Degraded reports a replica serving reads without a reachable primary.
func (r ReplicationReport) Degraded() bool {
	return r.State == ReplStateDegraded || r.State == ReplStatePromoteEligible
}

// Replication builds the GET /replication report.
func (s *DB) Replication() ReplicationReport {
	s.roleMu.RLock()
	role := s.role
	s.roleMu.RUnlock()
	rep := ReplicationReport{
		Role:      "primary",
		Term:      role.term,
		Fenced:    role.fenced,
		FencedBy:  role.fencedBy,
		Followers: []FollowerStatus{},
		Syncs:     s.metrics.replSyncs.Value(),
		Retries:   s.metrics.replRetries.Value(),
	}
	var committed, records int64
	if m := s.mgr(); m != nil {
		rep.WALEpoch = m.Epoch()
		committed, records = m.Committed()
		rep.Committed, rep.Records = committed, records
		rep.LastCommitSeq, rep.LastCommitNanos, rep.LastCommitID = m.LastCommit()
	}
	s.followMu.Lock()
	now := time.Now()
	for _, f := range s.followMap {
		fs := FollowerStatus{
			ID: f.id, Epoch: f.epoch, Offset: f.offset, Records: f.records,
			LagBytes: -1, LagRecords: -1,
			LagSeconds: f.lagSeconds, Resyncs: f.resyncs, Polls: f.polls,
			LastSeenMs: now.Sub(f.lastSeen).Milliseconds(),
		}
		if f.epoch == rep.WALEpoch {
			fs.LagBytes = max(committed-f.offset, 0)
			fs.LagRecords = max(records-f.records, 0)
		}
		rep.Followers = append(rep.Followers, fs)
	}
	s.followMu.Unlock()
	sort.Slice(rep.Followers, func(i, j int) bool { return rep.Followers[i].ID < rep.Followers[j].ID })
	if role.readOnly {
		rep.Role = "replica"
		rep.Primary = role.primaryURL
		rep.ApplyEpoch = s.repl.epoch.Load()
		rep.ApplyOffset = s.repl.offset.Load()
		rep.ApplyRecords = s.repl.records.Load()
		rep.LagBytes = s.repl.lagBytes.Load()
		rep.LagRecords = s.repl.lagRecords.Load()
		rep.VisibleLagMs = float64(s.repl.visibleLagNanos.Load()) / 1e6
		if state, ok := s.repl.state.Load().(string); ok {
			rep.State = state
		}
	}
	return rep
}

// SetReplicaProgress publishes the replica's apply position and lag for
// /replication and the lag gauges.
func (s *DB) SetReplicaProgress(epoch uint64, offset, records, lagBytes, lagRecords int64) {
	s.repl.epoch.Store(epoch)
	s.repl.offset.Store(offset)
	s.repl.records.Store(records)
	s.repl.lagBytes.Store(max(lagBytes, 0))
	s.repl.lagRecords.Store(max(lagRecords, 0))
}

// SetReplicaVisibleLag publishes the replica's latest commit-to-visible
// lag measurement (primary commit wall-clock to local apply-publish).
func (s *DB) SetReplicaVisibleLag(nanos int64) {
	s.repl.visibleLagNanos.Store(max(nanos, 0))
}

// NoteReplicaSync counts a snapshot bootstrap (the first sync and every
// epoch-rotation resync) and journals it.
func (s *DB) NoteReplicaSync() {
	s.metrics.replSyncs.Inc()
	s.Event(EventResync, "bootstrapped from primary snapshot",
		map[string]string{"syncs": strconv.FormatInt(s.metrics.replSyncs.Value(), 10)})
}

// NoteReplicaRetry counts a failed bootstrap or tail attempt that the
// replica will retry with backoff.
func (s *DB) NoteReplicaRetry() { s.metrics.replRetries.Inc() }

// SetReplicaState publishes the tail loop's state-machine position (one
// of the ReplState constants) for /replication and /healthz.
func (s *DB) SetReplicaState(state string) { s.repl.state.Store(state) }
