package service

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// In-process metrics history: a fixed ring of periodic samples of the
// key serving gauges, kept entirely in memory and served at GET
// /history. /metrics answers "what is the rate now" to a scraper that
// keeps its own history; this ring answers "what did the last hour look
// like" on a node with no scraper attached — the first question of any
// incident triage. Rates and quantiles are per-interval (snapshot
// deltas of the cumulative histograms), not since-start averages.

// HistorySample is one periodic observation of the serving state.
type HistorySample struct {
	Time time.Time `json:"time"`
	// QPS is successful queries per second over the sample interval;
	// P50Ms/P99Ms are end-to-end latency quantiles of the interval's
	// successful queries (0 when none ran).
	QPS            float64 `json:"qps"`
	P50Ms          float64 `json:"p50Ms"`
	P99Ms          float64 `json:"p99Ms"`
	QueueWaitP99Ms float64 `json:"queueWaitP99Ms"`
	InFlight       int64   `json:"inFlight"`
	// Replication: connected followers (primary), apply lag in bytes and
	// commit-to-visible lag (replica; 0 when unknown).
	Followers    int64   `json:"followers"`
	ReplLagBytes int64   `json:"replLagBytes"`
	VisibleLagMs float64 `json:"visibleLagMs"`
	LiveVersions int     `json:"liveVersions"`
	WALBytes     int64   `json:"walBytes"`
}

// history is the sampler state: the ring plus the previous cumulative
// snapshots the per-interval deltas are computed against.
type history struct {
	mu      sync.Mutex
	samples []HistorySample
	pos     int
	n       int

	interval    time.Duration
	prevLat     obs.HistogramSnapshot
	prevQueue   obs.HistogramSnapshot
	prevQueries int64
	prevTime    time.Time

	stop chan struct{}
}

// historyCapacity sizes the ring for ~1h of retention at the given
// interval, clamped to [60, 4096] samples.
func historyCapacity(interval time.Duration) int {
	n := int(time.Hour / interval)
	if n < 60 {
		n = 60
	}
	if n > 4096 {
		n = 4096
	}
	return n
}

// StartHistory begins periodic sampling every interval (<=0 means 10s).
// Restarting replaces the previous loop; StopHistory (also run by Close)
// ends it.
func (s *DB) StartHistory(interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	s.StopHistory()
	s.history.mu.Lock()
	s.history.interval = interval
	s.history.samples = make([]HistorySample, historyCapacity(interval))
	s.history.pos, s.history.n = 0, 0
	s.history.prevLat = s.metrics.latOK.Snapshot()
	s.history.prevQueue = s.metrics.queueWait.Snapshot()
	s.history.prevQueries = s.metrics.queries.Value()
	s.history.prevTime = time.Now()
	stop := make(chan struct{})
	s.history.stop = stop
	s.history.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.SampleHistory()
			}
		}
	}()
}

// StopHistory ends the sampling loop (the recorded ring stays readable).
func (s *DB) StopHistory() {
	s.history.mu.Lock()
	defer s.history.mu.Unlock()
	if s.history.stop != nil {
		close(s.history.stop)
		s.history.stop = nil
	}
}

// SampleHistory takes one sample now and appends it to the ring — the
// ticker's body, exported for tests and benchmarks. It is a pull:
// nothing on the query path ever pays for history.
func (s *DB) SampleHistory() HistorySample {
	lat := s.metrics.latOK.Snapshot()
	queue := s.metrics.queueWait.Snapshot()
	queries := s.metrics.queries.Value()
	now := time.Now()

	s.history.mu.Lock()
	defer s.history.mu.Unlock()
	if s.history.samples == nil {
		// Never started: sample against zero-value prevs into a default
		// ring so callers (benchmarks) need no StartHistory first.
		s.history.interval = 10 * time.Second
		s.history.samples = make([]HistorySample, historyCapacity(s.history.interval))
		s.history.prevTime = s.start
	}
	dLat := lat.Sub(s.history.prevLat)
	dQueue := queue.Sub(s.history.prevQueue)
	elapsed := now.Sub(s.history.prevTime).Seconds()
	sample := HistorySample{
		Time:         now,
		InFlight:     s.inFlight.Load(),
		Followers:    s.repl.followers.Load(),
		ReplLagBytes: s.repl.lagBytes.Load(),
		VisibleLagMs: float64(s.repl.visibleLagNanos.Load()) / 1e6,
		LiveVersions: s.core().LiveVersions(),
	}
	if elapsed > 0 {
		sample.QPS = float64(queries-s.history.prevQueries) / elapsed
	}
	if dLat.Count > 0 {
		sample.P50Ms = dLat.Quantile(0.5) * 1000
		sample.P99Ms = dLat.Quantile(0.99) * 1000
	}
	if dQueue.Count > 0 {
		sample.QueueWaitP99Ms = dQueue.Quantile(0.99) * 1000
	}
	if m := s.mgr(); m != nil {
		sample.WALBytes = m.WALSize()
	}
	s.history.samples[s.history.pos] = sample
	s.history.pos = (s.history.pos + 1) % len(s.history.samples)
	if s.history.n < len(s.history.samples) {
		s.history.n++
	}
	s.history.prevLat, s.history.prevQueue = lat, queue
	s.history.prevQueries, s.history.prevTime = queries, now
	return sample
}

// History returns the retained samples in chronological order and the
// sampling interval.
func (s *DB) History() ([]HistorySample, time.Duration) {
	s.history.mu.Lock()
	defer s.history.mu.Unlock()
	out := make([]HistorySample, 0, s.history.n)
	start := s.history.pos - s.history.n
	for i := 0; i < s.history.n; i++ {
		out = append(out, s.history.samples[(start+i+len(s.history.samples))%len(s.history.samples)])
	}
	return out, s.history.interval
}
