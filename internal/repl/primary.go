package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
)

// Primary serves a database's snapshot and WAL tail to followers. It
// wraps the serving layer (for on-demand checkpoints) and its durability
// manager (for tail reads); mount it next to the service's own handler.
type Primary struct {
	svc *service.DB
	mgr *persist.Manager

	// PollWait bounds how long an empty WAL tail request parks before
	// answering 204 (default 25s — under common proxy timeouts).
	PollWait time.Duration
	// MaxChunk bounds one tail response (default 1 MB); a single record
	// larger than this is still shipped whole.
	MaxChunk int
}

// NewPrimary builds the replication endpoints for a durable service.
func NewPrimary(svc *service.DB, mgr *persist.Manager) *Primary {
	return &Primary{svc: svc, mgr: mgr, PollWait: 25 * time.Second, MaxChunk: 1 << 20}
}

// handleSnapshot streams the checkpoint snapshot file. The first
// follower of a never-checkpointed primary triggers a checkpoint, so the
// served snapshot plus the (now fresh) WAL always covers the full state.
// The epoch lives in the snapshot header; followers decode it from the
// stream, so a checkpoint racing this handler at worst hands out the
// previous complete snapshot, whose epoch the WAL endpoint then reports
// as rotated.
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		replError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if !p.observeTerm(w, r) {
		return
	}
	if id := followerID(r); id != "" {
		p.svc.NoteFollowerSync(id)
	}
	path := p.mgr.SnapshotPath()
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if _, cerr := p.svc.Checkpoint(); cerr != nil {
			replError(w, http.StatusInternalServerError, fmt.Errorf("creating bootstrap snapshot: %w", cerr))
			return
		}
	} else if err != nil {
		replError(w, http.StatusInternalServerError, err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		replError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, f)
}

// handleWAL answers one long-poll tail request: committed frames from
// the requested offset, 204 when caught up, 410 when the epoch was
// checkpointed away. Every response carries the primary's position
// headers. The connected-follower gauge counts requests currently inside
// this handler — with followers parked in long polls, that is the number
// of attached replicas.
func (p *Primary) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		replError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	q := r.URL.Query()
	epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	if err != nil {
		replError(w, http.StatusBadRequest, fmt.Errorf("bad epoch %q", q.Get("epoch")))
		return
	}
	offset, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil {
		replError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", q.Get("offset")))
		return
	}
	if !p.observeTerm(w, r) {
		return
	}
	p.noteFollower(r)
	p.svc.FollowerDelta(1)
	defer p.svc.FollowerDelta(-1)

	deadline := time.Now().Add(p.PollWait)
	for {
		// Grab the change channel before reading: a commit landing between
		// the read and the park then wakes us instead of being missed.
		changed := p.mgr.Changed()
		tail, err := p.mgr.TailRead(epoch, offset, p.MaxChunk)
		switch {
		case errors.Is(err, persist.ErrEpochGone):
			setTailHeaders(w, tail)
			w.WriteHeader(http.StatusGone)
			return
		case err != nil:
			replError(w, http.StatusInternalServerError, err)
			return
		case len(tail.Data) > 0:
			setTailHeaders(w, tail)
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(tail.Data)
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			setTailHeaders(w, tail)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		park := time.NewTimer(remain)
		select {
		case <-changed:
			park.Stop()
		case <-r.Context().Done():
			park.Stop()
			return
		case <-park.C:
		}
	}
}

// observeTerm reconciles the caller's fencing term with this primary's
// own. A request carrying a higher term is proof a newer primary exists:
// this one fences itself (local writes start failing with ErrFenced)
// and — reporting false — refuses to serve the stream, so nobody
// bootstraps from superseded history. Every response carries the
// primary's (possibly just-raised) term for the follower to adopt.
func (p *Primary) observeTerm(w http.ResponseWriter, r *http.Request) bool {
	if v := r.Header.Get(hdrTerm); v != "" {
		if t, err := strconv.ParseUint(v, 10, 64); err == nil && t > p.svc.Term() {
			p.svc.Fence(t, "")
		}
	}
	w.Header().Set(hdrTerm, strconv.FormatUint(p.svc.Term(), 10))
	if fenced, by := p.svc.Fenced(); fenced {
		if by != "" {
			replError(w, http.StatusServiceUnavailable,
				fmt.Errorf("fenced: superseded by primary %s at term %d", by, p.svc.Term()))
		} else {
			replError(w, http.StatusServiceUnavailable,
				fmt.Errorf("fenced: superseded at term %d", p.svc.Term()))
		}
		return false
	}
	return true
}

// followerID extracts a usable follower identity from the request: the
// same validity rules as client query ids (printable ASCII, capped),
// since the id becomes a metric label and a log field on the primary.
func followerID(r *http.Request) string {
	id := r.Header.Get(hdrFollower)
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] < '!' || id[i] > '~' {
			return ""
		}
	}
	return id
}

// noteFollower folds one tail poll's ack headers into the service's
// per-follower progress registry: the follower's applied position from
// its previous round and — when it could measure one — the
// commit-to-visible lag of its latest applied chunk.
func (p *Primary) noteFollower(r *http.Request) {
	id := followerID(r)
	if id == "" {
		return
	}
	epoch, _ := strconv.ParseUint(r.Header.Get(hdrAckEpoch), 10, 64)
	offset, _ := strconv.ParseInt(r.Header.Get(hdrAckOffset), 10, 64)
	records, _ := strconv.ParseInt(r.Header.Get(hdrAckRecords), 10, 64)
	lagNanos, _ := strconv.ParseInt(r.Header.Get(hdrVisibleLag), 10, 64)
	p.svc.ObserveFollowerPoll(id, epoch, offset, records, lagNanos)
}

func setTailHeaders(w http.ResponseWriter, t persist.Tail) {
	w.Header().Set(hdrEpoch, strconv.FormatUint(t.Epoch, 10))
	w.Header().Set(hdrCommitted, strconv.FormatInt(t.Committed, 10))
	w.Header().Set(hdrRecords, strconv.FormatInt(t.Records, 10))
	if t.CommitSeq > 0 {
		w.Header().Set(hdrCommitSeq, strconv.FormatInt(t.CommitSeq, 10))
		w.Header().Set(hdrCommitTime, strconv.FormatInt(t.CommitNanos, 10))
		if t.QueryID != "" {
			w.Header().Set(hdrQueryID, t.QueryID)
		}
	}
}

func replError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
