package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
)

// errResync signals that the follower's epoch view is stale (the primary
// rotated it away, or the stream is persistently unusable) and the next
// step is a fresh snapshot bootstrap.
var errResync = errors.New("repl: resync from snapshot required")

// errStalePrimary reports a peer whose fencing term is lower than the
// replica's own view — a revived pre-failover primary. Its stream must
// not be applied: it forked from the authoritative history at the
// promotion point.
var errStalePrimary = errors.New("repl: primary reports a stale term")

// maxStall bounds consecutive zero-progress polls (a frame whose CRC
// keeps failing, or a stream that never completes a frame) before the
// replica gives up on the tail and re-bootstraps.
const maxStall = 3

// maxBody caps one tail response read; the primary chunks at MaxChunk
// but a single oversized record is shipped whole, so leave headroom.
const maxBody = 256 << 20

// replicaIDs makes default follower ids process-unique (tests run many
// replicas in one process).
var replicaIDs atomic.Int64

// Replica follows one primary: it bootstraps the service's catalog from
// the primary's snapshot (SwapCore) and then applies the shipped WAL
// through the service's replicated-apply path, publishing progress, lag
// and its health state machine to /replication. Run it on its own goroutine;
// queries hit the service concurrently throughout.
//
// Failure handling is a small circuit breaker. Transport errors retry
// on capped jittered exponential backoff; after DegradedAfter
// consecutive failures the replica reports itself degraded (reads keep
// serving), and after PromoteAfter it reports promote-eligible — the
// primary has been gone long enough that an operator may POST /promote.
// Zero-progress tails (maxStall polls that consume nothing) and epoch
// rotations (410) heal through a snapshot resync.
type Replica struct {
	svc  *service.DB
	base string
	hc   *http.Client

	// ID identifies this follower to the primary (the X-Repl-Follower
	// header, a metric label in the primary's per-follower lag
	// histograms and the id in its GET /replication). Defaults to a
	// process-unique name; cmd/served overrides it with the node's
	// listen address. Set before the tail loop starts.
	ID string

	// Backoff is the first retry delay after a failure; subsequent
	// failures double it (with jitter) up to BackoffCap.
	Backoff    time.Duration
	BackoffCap time.Duration

	// DegradedAfter and PromoteAfter are the circuit-breaker thresholds:
	// consecutive failed bootstrap/tail attempts before the replica
	// reports "degraded" and "promote-eligible" respectively.
	DegradedAfter int
	PromoteAfter  int

	// SnapshotTimeout bounds one snapshot fetch end-to-end;
	// PollTimeout bounds one WAL tail request (it must exceed the
	// primary's long-poll window or every idle poll times out).
	SnapshotTimeout time.Duration
	PollTimeout     time.Duration

	// Tail position: the epoch of the restored snapshot, the applied
	// byte offset into that epoch's WAL, and applied mutation records.
	epoch   uint64
	offset  int64
	records int64
	ready   bool
	stall   int

	// lagNanos is the last measured commit-to-visible lag (primary
	// commit wall-clock to local apply), reported upstream on the next
	// poll's ack headers; 0 until a fully-applied chunk carried a stamp.
	lagNanos int64

	// Circuit-breaker state (tail-loop goroutine only).
	bo        backoff
	fails     int
	everReady bool
}

// NewReplica builds a follower of the primary at base (e.g.
// "http://10.0.0.1:8080"). The service should already be read-only.
func NewReplica(svc *service.DB, base string) *Replica {
	r := &Replica{
		svc:  svc,
		base: base,
		ID:   fmt.Sprintf("follower-%d-%d", os.Getpid(), replicaIDs.Add(1)),
		// No global client timeout: the WAL tail long-polls, and per-
		// request timeouts (PollTimeout, SnapshotTimeout) bound each call
		// instead. Dead primaries are also caught by the dial and
		// response-header timeouts.
		hc: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			ResponseHeaderTimeout: 60 * time.Second,
		}},
		Backoff:         250 * time.Millisecond,
		BackoffCap:      5 * time.Second,
		DegradedAfter:   3,
		PromoteAfter:    8,
		SnapshotTimeout: 5 * time.Minute,
		PollTimeout:     90 * time.Second,
	}
	r.setState(service.ReplStateBootstrapping)
	return r
}

// SetTransport replaces the HTTP transport — the fault-injection seam
// (wrap with faultinject.Transport to drop, delay or tear the stream).
// Call before the tail loop starts.
func (r *Replica) SetTransport(rt http.RoundTripper) { r.hc.Transport = rt }

func (r *Replica) bootstrap(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, r.timeout(r.SnapshotTimeout, 5*time.Minute))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+SnapshotPath, nil)
	if err != nil {
		return err
	}
	req.Header.Set(hdrTerm, strconv.FormatUint(r.svc.Term(), 10))
	req.Header.Set(hdrFollower, r.ID)
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := r.checkTerm(resp); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot fetch: %s: %s", resp.Status, readErrBody(resp.Body))
	}
	db, epoch, err := persist.ReadSnapshot(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: restoring shipped snapshot: %w", err)
	}
	r.svc.SwapCore(db)
	r.epoch, r.offset, r.records = epoch, 0, 0
	r.ready, r.stall = true, 0
	r.svc.NoteReplicaSync()
	r.svc.SetReplicaProgress(r.epoch, 0, 0, 0, 0)
	// A demoted (fenced) primary that has re-based onto the new
	// primary's snapshot is a consistent replica again.
	r.svc.ClearFence()
	return nil
}

// Run tails the primary until ctx is cancelled, bootstrapping (and
// re-bootstrapping after epoch rotations) as needed. Failures back off
// exponentially and never give up — a restarted primary is picked up
// where its log stands — while the state machine keeps /replication
// honest about how healthy the stream is.
func (r *Replica) Run(ctx context.Context) {
	for ctx.Err() == nil {
		if !r.ready {
			if r.everReady {
				r.setState(service.ReplStateResyncing)
			} else {
				r.setState(service.ReplStateBootstrapping)
			}
			if err := r.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				r.noteFailure(ctx)
				continue
			}
			r.everReady = true
			r.noteProgress()
		}
		switch err := r.poll(ctx); {
		case err == nil:
			r.noteProgress()
		case errors.Is(err, errResync):
			r.ready = false
		case ctx.Err() != nil:
			return
		default:
			r.noteFailure(ctx)
		}
	}
}

// Drain applies whatever committed WAL the primary can still serve, for
// up to wait — the promotion path's final catch-up attempt against a
// possibly-dead primary. It returns the number of polls that made
// progress; errors are expected (the primary usually just died) and end
// the drain. Only call it after the Run loop has stopped.
func (r *Replica) Drain(wait time.Duration) int {
	if !r.ready {
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	progressed := 0
	for ctx.Err() == nil {
		before := r.offset
		if err := r.poll(ctx); err != nil {
			break
		}
		if r.offset == before {
			break // 204 or zero progress: caught up with what is servable
		}
		progressed++
	}
	return progressed
}

// poll issues one tail request and applies whatever it returns. Each
// round's wall time — long-poll wait included — feeds the service's
// db_repl_poll_seconds histogram.
func (r *Replica) poll(ctx context.Context) error {
	start := time.Now()
	defer func() { r.svc.ObserveReplPoll(time.Since(start).Seconds()) }()
	ctx, cancel := context.WithTimeout(ctx, r.timeout(r.PollTimeout, 90*time.Second))
	defer cancel()
	url := fmt.Sprintf("%s%s?epoch=%d&offset=%d", r.base, WALPath, r.epoch, r.offset)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(hdrTerm, strconv.FormatUint(r.svc.Term(), 10))
	// Ack the position (and lag measurement) of the previous round; the
	// primary folds it into its per-follower registry and histograms.
	req.Header.Set(hdrFollower, r.ID)
	req.Header.Set(hdrAckEpoch, strconv.FormatUint(r.epoch, 10))
	req.Header.Set(hdrAckOffset, strconv.FormatInt(r.offset, 10))
	req.Header.Set(hdrAckRecords, strconv.FormatInt(r.records, 10))
	if r.lagNanos > 0 {
		req.Header.Set(hdrVisibleLag, strconv.FormatInt(r.lagNanos, 10))
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := r.checkTerm(resp); err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		chunk, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
		if err != nil {
			return err
		}
		consumed, applied, aerr := r.svc.ApplyReplicated(chunk, r.epoch)
		r.offset += int64(consumed)
		r.records += int64(applied)
		r.publish(resp)
		r.noteApply(resp, len(chunk), consumed, applied)
		if consumed == 0 && len(chunk) > 0 {
			// A frame that cannot be applied and does not advance: either
			// corrupt in transit (re-request and hope) or corrupt at the
			// source (every retry is identical) — after maxStall identical
			// failures, fall back to a snapshot bootstrap.
			r.stall++
			if r.stall >= maxStall {
				return errResync
			}
			return nil
		}
		r.stall = 0
		if aerr != nil {
			// Partial progress: the bad frame is now first at the new
			// offset; the next poll retries it and the stall counter above
			// takes over if it never yields.
			return nil
		}
		return nil
	case http.StatusNoContent:
		r.publish(resp)
		r.stall = 0
		return nil
	case http.StatusGone:
		return errResync
	default:
		// A primary that persistently cannot serve this tail (e.g. a local
		// read error on its log) still has a servable snapshot: after
		// maxStall failing polls, heal through a bootstrap instead of
		// retrying the same broken read forever.
		r.stall++
		if r.stall >= maxStall {
			return errResync
		}
		return fmt.Errorf("repl: WAL tail: %s: %s", resp.Status, readErrBody(resp.Body))
	}
}

// noteApply closes the write-tracing loop on one applied chunk: it
// measures commit-to-visible lag (the primary's stamped commit
// wall-clock time to now, valid only when the whole chunk applied — a
// partial apply has not yet made the stamped commit visible) and logs
// the apply with the originating write's correlation id, so grepping one
// X-Query-Id walks the write from the client's request through the
// primary's WAL commit to this replica's publish.
func (r *Replica) noteApply(resp *http.Response, chunkLen, consumed, applied int) {
	if applied == 0 {
		return
	}
	seq, _ := strconv.ParseInt(resp.Header.Get(hdrCommitSeq), 10, 64)
	commitNanos, _ := strconv.ParseInt(resp.Header.Get(hdrCommitTime), 10, 64)
	var lagNanos int64
	if commitNanos > 0 && consumed == chunkLen {
		lagNanos = max(time.Now().UnixNano()-commitNanos, 0)
		r.lagNanos = lagNanos
		r.svc.SetReplicaVisibleLag(lagNanos)
	}
	args := []any{
		slog.Int64("commitSeq", seq),
		slog.Uint64("epoch", r.epoch),
		slog.Int64("offset", r.offset),
		slog.Int("records", applied),
	}
	if qid := resp.Header.Get(hdrQueryID); qid != "" {
		args = append(args, slog.String("id", qid))
	}
	if lagNanos > 0 {
		args = append(args, slog.Int64("visibleLagMicros", lagNanos/1e3))
	}
	r.svc.Logger().Debug("repl: applied", args...)
}

// checkTerm reconciles the peer's fencing term with ours: adopt a higher
// one (the normal propagation path), refuse a lower one (a revived
// pre-failover primary whose history forked at the promotion).
func (r *Replica) checkTerm(resp *http.Response) error {
	v := resp.Header.Get(hdrTerm)
	if v == "" {
		return nil
	}
	term, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return nil
	}
	if own := r.svc.Term(); term < own {
		return fmt.Errorf("%w: peer at term %d, local view is %d", errStalePrimary, term, own)
	}
	r.svc.AdoptTerm(term)
	return nil
}

// publish refreshes the /replication lag figures from the primary's position
// headers.
func (r *Replica) publish(resp *http.Response) {
	committed, err1 := strconv.ParseInt(resp.Header.Get(hdrCommitted), 10, 64)
	records, err2 := strconv.ParseInt(resp.Header.Get(hdrRecords), 10, 64)
	epoch, err3 := strconv.ParseUint(resp.Header.Get(hdrEpoch), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || epoch != r.epoch {
		// Position of a different epoch (mid-rotation) — lag is about to
		// be recomputed against a fresh snapshot anyway.
		r.svc.SetReplicaProgress(r.epoch, r.offset, r.records, 0, 0)
		return
	}
	r.svc.SetReplicaProgress(r.epoch, r.offset, r.records, committed-r.offset, records-r.records)
}

// noteProgress resets the circuit breaker after a successful poll or
// bootstrap.
func (r *Replica) noteProgress() {
	r.fails = 0
	r.bo.reset()
	r.setState(service.ReplStateStreaming)
}

// noteFailure advances the circuit breaker — counting the retry,
// publishing the state transition, and sleeping the backoff.
func (r *Replica) noteFailure(ctx context.Context) {
	r.fails++
	r.svc.NoteReplicaRetry()
	switch {
	case r.fails >= r.threshold(r.PromoteAfter, 8):
		r.setState(service.ReplStatePromoteEligible)
	case r.fails >= r.threshold(r.DegradedAfter, 3):
		r.setState(service.ReplStateDegraded)
	}
	r.bo.base, r.bo.cap = r.Backoff, r.BackoffCap
	t := time.NewTimer(r.bo.next())
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (r *Replica) setState(s string) { r.svc.SetReplicaState(s) }

func (r *Replica) timeout(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

func (r *Replica) threshold(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

func readErrBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return string(b)
}
