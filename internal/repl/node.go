package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
)

// NodeConfig wires a Node to its service and storage.
type NodeConfig struct {
	// PrimaryURL, when non-empty, starts the node as a replica of that
	// primary. Empty starts it as a primary (Mgr must then be set).
	PrimaryURL string

	// Mgr is the node's durability manager when it starts as (or has
	// already been) a primary. A replica may leave it nil and rely on
	// OpenStorage at promotion time.
	Mgr *persist.Manager

	// OpenStorage opens the node's data directory fresh for promotion —
	// a replica holds its whole state in memory, but a primary needs a
	// WAL to feed followers. Discard the opened directory's contents;
	// the promoted catalog is checkpointed into it. Required to promote
	// a replica that has no Mgr.
	OpenStorage func() (*persist.Manager, error)

	// CheckpointWAL is the WAL-size checkpoint threshold (bytes) handed
	// to the service when promotion attaches storage (0 = default).
	CheckpointWAL int64

	// DrainWait bounds the promotion-time final catch-up against the
	// (possibly dead) old primary. Default 2s.
	DrainWait time.Duration

	// FollowerID, when set, names this node on the primary's side (the
	// X-Repl-Follower header: the follower id in GET /replication and
	// the per-follower lag histograms). Default is a process-unique name.
	FollowerID string

	// Tune, when set, adjusts each newly built Replica (backoff, state
	// thresholds, timeouts) before its tail loop starts.
	Tune func(*Replica)
}

// Node gives a service a runtime-switchable replication role. It owns
// the replica tail loop and the primary's /repl/* endpoints, dispatching
// by current role, and drives the two transitions: Promote (replica →
// primary at term+1) and Demote (superseded primary → fenced replica of
// its successor). Handlers for POST /promote and /demote expose both
// over HTTP for operators and external coordinators.
type Node struct {
	svc *service.DB
	cfg NodeConfig

	mu      sync.Mutex
	primary *Primary
	replica *Replica
	ctx     context.Context // root, from Start; parents each tail loop
	cancel  context.CancelFunc
	done    chan struct{}
}

// NewNode builds a node; call Start to begin its initial role.
func NewNode(svc *service.DB, cfg NodeConfig) *Node {
	return &Node{svc: svc, cfg: cfg}
}

// Start enters the configured initial role. For a replica the service is
// flipped read-only and the tail loop starts immediately — the node
// serves (empty) reads while bootstrapping, rather than blocking on a
// primary that may be down.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ctx = ctx
	if n.cfg.PrimaryURL == "" {
		if n.cfg.Mgr == nil {
			return errors.New("repl: a primary node needs a durability manager")
		}
		n.primary = NewPrimary(n.svc, n.cfg.Mgr)
		return nil
	}
	n.svc.SetReadOnly(n.cfg.PrimaryURL)
	n.startReplicaLocked(n.cfg.PrimaryURL)
	return nil
}

// Mount registers the role-dispatched replication endpoints and the
// failover admin endpoints on mux.
func (n *Node) Mount(mux *http.ServeMux) {
	mux.HandleFunc(SnapshotPath, func(w http.ResponseWriter, r *http.Request) {
		if p := n.currentPrimary(); p != nil {
			p.handleSnapshot(w, r)
			return
		}
		replError(w, http.StatusServiceUnavailable, errors.New("not a primary"))
	})
	mux.HandleFunc(WALPath, func(w http.ResponseWriter, r *http.Request) {
		if p := n.currentPrimary(); p != nil {
			p.handleWAL(w, r)
			return
		}
		replError(w, http.StatusServiceUnavailable, errors.New("not a primary"))
	})
	mux.HandleFunc(PromotePath, n.handlePromote)
	mux.HandleFunc(DemotePath, n.handleDemote)
}

func (n *Node) currentPrimary() *Primary {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// Promote flips a replica into a primary. The tail loop stops, a final
// drain applies whatever the old primary can still serve, storage is
// opened (when not already attached), the current catalog is
// checkpointed into it so followers have a snapshot to bootstrap from,
// and the service goes read/write at term+1. Idempotent: promoting a
// primary returns its current term.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.primary != nil {
		return n.svc.Term(), nil
	}
	n.stopReplicaLocked()
	if rep := n.replica; rep != nil {
		wait := n.cfg.DrainWait
		if wait <= 0 {
			wait = 2 * time.Second
		}
		rep.Drain(wait)
	}
	mgr := n.cfg.Mgr
	if mgr == nil {
		if n.cfg.OpenStorage == nil {
			n.startReplicaLocked(n.svc.PrimaryURL())
			return 0, errors.New("repl: promotion needs a data directory (no storage configured)")
		}
		m, err := n.cfg.OpenStorage()
		if err != nil {
			n.startReplicaLocked(n.svc.PrimaryURL())
			return 0, fmt.Errorf("repl: opening promotion storage: %w", err)
		}
		mgr = m
		n.cfg.Mgr = m
	}
	term := n.svc.Term() + 1
	n.svc.Promote(term)
	n.svc.AttachPersist(mgr, n.cfg.CheckpointWAL)
	if _, err := n.svc.Checkpoint(); err != nil {
		return term, fmt.Errorf("repl: checkpointing promoted catalog: %w", err)
	}
	n.replica = nil
	n.primary = NewPrimary(n.svc, mgr)
	n.svc.SetReplicaState("")
	slog.Info("repl: promoted to primary", slog.Uint64("term", term))
	return term, nil
}

// Demote points the node at a (new) primary as a replica. On a current
// primary this is the post-failover fencing path: the term must be at
// least the node's own, local writes start failing with ErrFenced, the
// durability manager is detached and closed (its history is superseded;
// a re-promotion re-opens the directory fresh), and a tail loop starts
// against the new primary — whose snapshot bootstrap clears the fence.
// On a node that is already a replica it re-points the tail loop.
func (n *Node) Demote(primaryURL string, term uint64) error {
	if primaryURL == "" {
		return errors.New("repl: demote needs the new primary's URL")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if own := n.svc.Term(); term < own {
		return fmt.Errorf("repl: demote carries stale term %d (node is at %d)", term, own)
	}
	if n.primary != nil {
		n.svc.Fence(term, primaryURL)
		n.primary = nil
		if m := n.svc.DetachPersist(); m != nil {
			if err := m.Close(); err != nil {
				slog.Warn("repl: closing superseded WAL failed", slog.Any("err", err))
			}
		}
		n.cfg.Mgr = nil
		slog.Info("repl: demoted", slog.Uint64("term", term), slog.String("primary", primaryURL))
	} else {
		n.stopReplicaLocked()
		n.svc.AdoptTerm(term)
	}
	n.svc.SetReadOnly(primaryURL)
	n.startReplicaLocked(primaryURL)
	n.svc.Event(service.EventDemote, "demoted: now following a new primary", map[string]string{
		"primary": primaryURL,
		"term":    strconv.FormatUint(term, 10),
	})
	return nil
}

// startReplicaLocked builds a fresh Replica and starts its tail loop.
func (n *Node) startReplicaLocked(primaryURL string) {
	rep := NewReplica(n.svc, primaryURL)
	if n.cfg.FollowerID != "" {
		rep.ID = n.cfg.FollowerID
	}
	if n.cfg.Tune != nil {
		n.cfg.Tune(rep)
	}
	ctx := n.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	n.replica, n.cancel, n.done = rep, cancel, done
	go func() {
		defer close(done)
		rep.Run(cctx)
	}()
}

// stopReplicaLocked cancels the tail loop and waits for it to exit, so
// no poll races the role transition.
func (n *Node) stopReplicaLocked() {
	if n.cancel != nil {
		n.cancel()
		<-n.done
		n.cancel, n.done = nil, nil
	}
}

// Stop cancels any running tail loop (for tests and shutdown paths that
// do not cancel the Start context).
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopReplicaLocked()
}

// handlePromote answers POST /promote.
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		replError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	term, err := n.Promote()
	if err != nil {
		replError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"role": "primary", "term": term})
}

// handleDemote answers POST /demote with body {"primary": URL, "term": N}.
func (n *Node) handleDemote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		replError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var req struct {
		Primary string `json:"primary"`
		Term    uint64 `json:"term"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		replError(w, http.StatusBadRequest, fmt.Errorf("bad demote body: %w", err))
		return
	}
	if err := n.Demote(req.Primary, req.Term); err != nil {
		status := http.StatusInternalServerError
		if req.Term < n.svc.Term() || req.Primary == "" {
			status = http.StatusConflict
		}
		if req.Primary == "" {
			status = http.StatusBadRequest
		}
		replError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"role": "replica", "primary": req.Primary, "term": n.svc.Term(),
	})
}
