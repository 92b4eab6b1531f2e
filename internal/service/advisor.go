package service

import (
	"log/slog"
	"math"
	"strconv"
	"time"

	"repro/internal/workload"
	"repro/internal/workload/advisor"
)

// WorkloadReport is the GET /workload payload: the live capture snapshot
// — per-table column heat plus the top tracked plan shapes.
type WorkloadReport struct {
	Tables []workload.TableHeat `json:"tables"`
	// TopShapes are the tracked normalized plan shapes by descending
	// execution count (capped; ShapesTracked is the full ring size).
	TopShapes     []workload.ShapeInfo `json:"topShapes"`
	ShapesTracked int                  `json:"shapesTracked"`
	ShapesEvicted int64                `json:"shapesEvicted"`
}

// maxReportedShapes caps the shapes embedded in one /workload response;
// the full ring stays scrapeable through repeated queries but one JSON
// payload stays small.
const maxReportedShapes = 20

// WorkloadSnapshot returns the current capture state.
func (s *DB) WorkloadSnapshot() WorkloadReport {
	tables, shapes, evicted := s.capture.Snapshot()
	tracked := len(shapes)
	if len(shapes) > maxReportedShapes {
		shapes = shapes[:maxReportedShapes]
	}
	return WorkloadReport{
		Tables:        tables,
		TopShapes:     shapes,
		ShapesTracked: tracked,
		ShapesEvicted: evicted,
	}
}

// AdvisorReport is the GET /advisor payload. Advisory-only: the service
// never acts on it — POST /optimize (or a future background-relayout
// loop) is the acting path.
type AdvisorReport struct {
	Advice []advisor.TableAdvice `json:"advice"`
	// Queries is the number of captured executions behind the mix the
	// advice was computed from; Shapes is how many distinct plan shapes
	// they collapse to.
	Queries int64 `json:"queries"`
	Shapes  int   `json:"shapes"`
}

// Advise converts the captured shape frequencies into the optimizer's
// workload-declaration form and prices every touched table's current
// layout against the BPi optimum for the live mix, against a pinned
// snapshot. It also refreshes the per-table drift gauges and logs a
// warning for tables whose drift crosses the configured threshold.
func (s *DB) Advise() AdvisorReport {
	mix, execs := s.capture.Mix("captured")
	rep := AdvisorReport{Advice: []advisor.TableAdvice{}, Queries: execs, Shapes: len(mix.Queries)}
	if len(mix.Queries) == 0 {
		return rep
	}
	db := s.core()
	snap := db.Snapshot()
	rep.Advice = advisor.Advise(snap.Catalog(), db.Geometry(), mix)
	snap.Release()
	s.metrics.advisorRuns.Inc()
	warn := s.driftWarnRatio()
	for _, a := range rep.Advice {
		s.driftGauge(a.Table).Set(a.Drift)
		if warn > 0 && a.Drift >= warn {
			s.logger().Warn("layout drift",
				slog.String("table", a.Table),
				slog.Float64("drift", a.Drift),
				slog.String("layout", a.Layout),
				slog.String("recommended", a.Recommended),
				slog.Int64("queries", rep.Queries),
			)
			s.Event(EventDriftWarning, "layout drift over threshold", map[string]string{
				"table":       a.Table,
				"drift":       strconv.FormatFloat(a.Drift, 'f', 3, 64),
				"layout":      a.Layout,
				"recommended": a.Recommended,
			})
		}
	}
	return rep
}

// DefaultDriftWarnRatio is the drift threshold above which Advise logs a
// warning when no explicit threshold was set: a table paying 25% over
// the modeled optimum is worth an operator's attention.
const DefaultDriftWarnRatio = 1.25

// SetDriftWarnRatio sets the drift ratio at or above which Advise logs a
// per-table warning (<= 0 disables the warnings).
func (s *DB) SetDriftWarnRatio(r float64) {
	s.advisorWarn.Store(math.Float64bits(r))
}

func (s *DB) driftWarnRatio() float64 {
	if bits := s.advisorWarn.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return DefaultDriftWarnRatio
}

// StartAdvisor runs Advise every interval until StopAdvisor (or Close).
// At most one loop runs; a second call replaces the first. Intervals
// <= 0 are a no-op — the endpoint and gauges then only refresh when
// GET /advisor is hit.
func (s *DB) StartAdvisor(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.advisorStopMu.Lock()
	defer s.advisorStopMu.Unlock()
	if s.advisorStop != nil {
		close(s.advisorStop)
	}
	stop := make(chan struct{})
	s.advisorStop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Advise()
			case <-stop:
				return
			}
		}
	}()
}

// StopAdvisor stops the periodic advisor loop, if one is running.
func (s *DB) StopAdvisor() {
	s.advisorStopMu.Lock()
	defer s.advisorStopMu.Unlock()
	if s.advisorStop != nil {
		close(s.advisorStop)
		s.advisorStop = nil
	}
}
