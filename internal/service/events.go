package service

import (
	"log/slog"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Cluster event journal: a bounded in-process ring of structured system
// events — role transitions, term changes, checkpoints, relayouts,
// replica resyncs, overload shedding, advisor warnings. The journal is
// the "what happened around the incident" complement to /metrics (which
// aggregates) and the logs (which scroll away): GET /events?since=N
// replays the recent sequence with term/epoch stamps, cheap enough to
// poll from a coordinator. Every append also mirrors to slog and bumps
// db_events_total{kind}.

// Event kinds recorded in the journal. The set is closed on purpose:
// bounded db_events_total{kind} cardinality, and consumers can switch on
// kinds without scraping message text.
const (
	EventPromote         = "promote"          // replica became primary
	EventDemote          = "demote"           // node re-pointed at a (new) primary
	EventFence           = "fence"            // primary superseded by a higher term
	EventTermAdopt       = "term-adopt"       // replica adopted a higher term from its primary
	EventCheckpointBegin = "checkpoint-begin" // snapshot write started
	EventCheckpointEnd   = "checkpoint-end"   // snapshot written, WAL rotated to a new epoch
	EventRelayout        = "relayout"         // OptimizeLayouts changed physical layouts
	EventResync          = "resync"           // replica (re-)bootstrapped from a snapshot
	EventOverload        = "overload"         // admission control shed load (rate-limited)
	EventDriftWarning    = "drift-warning"    // advisor priced layout drift over threshold
)

// Event appends a structured system event to the journal, stamped with
// the node's current term and the published catalog epoch, mirrors it to
// the structured log and counts it in db_events_total{kind}. Callers
// must not hold roleMu (the stamp reads the term through it).
func (s *DB) Event(kind, msg string, data map[string]string) {
	e := obs.Event{
		Kind:  kind,
		Term:  s.Term(),
		Epoch: s.core().Epoch(),
		Msg:   msg,
		Data:  data,
	}
	seq := s.journal.Append(e)
	s.metrics.reg.Counter("db_events_total",
		"System events appended to the journal, by kind.",
		obs.Labels{"kind": kind}).Inc()
	args := []any{
		slog.Uint64("seq", seq),
		slog.Uint64("term", e.Term),
		slog.Uint64("epoch", e.Epoch),
	}
	for k, v := range data {
		args = append(args, slog.String(k, v))
	}
	s.logger().Info("event: "+kind+": "+msg, args...)
}

// Events replays journal entries after the cursor (0 = from the oldest
// retained); see obs.Journal.Since for the cursor and eviction contract.
func (s *DB) Events(since uint64, limit int) (events []obs.Event, next uint64, evicted uint64) {
	return s.journal.Since(since, limit)
}

// noteOverload journals an overload event at most once per second —
// admission rejections come in bursts exactly when the node is least
// able to afford per-rejection work, so the journal records the episode,
// not every victim (db_queries_total{outcome="rejected"} has the count).
func (s *DB) noteOverload() {
	now := time.Now().UnixNano()
	last := s.lastOverload.Load()
	if now-last < int64(time.Second) || !s.lastOverload.CompareAndSwap(last, now) {
		return
	}
	s.Event(EventOverload, "admission queue timed out, shedding load", map[string]string{
		"maxInFlight": strconv.Itoa(cap(s.sem)),
		"rejected":    strconv.FormatInt(s.metrics.rejected.Value(), 10),
	})
}
