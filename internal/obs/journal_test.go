package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestJournalAppendSince(t *testing.T) {
	j := NewJournal(8)
	if len(j.slots) != 8 {
		t.Fatalf("Cap = %d, want 8", len(j.slots))
	}
	for i := 1; i <= 5; i++ {
		seq := j.Append(Event{Kind: "k", Msg: fmt.Sprintf("e%d", i)})
		if seq != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, seq)
		}
	}
	events, next, evicted := j.Since(0, 0)
	if len(events) != 5 || next != 5 || evicted != 0 {
		t.Fatalf("Since(0) = %d events, next %d, evicted %d; want 5, 5, 0", len(events), next, evicted)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.Msg != fmt.Sprintf("e%d", i+1) {
			t.Fatalf("event %d = seq %d msg %q", i, e.Seq, e.Msg)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	// Resuming from the returned cursor yields nothing new.
	events, next, evicted = j.Since(next, 0)
	if len(events) != 0 || next != 5 || evicted != 0 {
		t.Fatalf("resumed Since = %d events, next %d, evicted %d", len(events), next, evicted)
	}
	// A mid-stream cursor yields the suffix only.
	events, _, _ = j.Since(3, 0)
	if len(events) != 2 || events[0].Seq != 4 {
		t.Fatalf("Since(3) = %+v", events)
	}
}

func TestJournalWraparoundEvictsUnread(t *testing.T) {
	j := NewJournal(8)
	for i := 1; i <= 20; i++ {
		j.Append(Event{Kind: "k", Msg: fmt.Sprintf("e%d", i)})
	}
	// The ring holds seqs 13..20; everything before was evicted unread.
	events, next, evicted := j.Since(0, 0)
	if evicted != 12 {
		t.Fatalf("evicted = %d, want 12", evicted)
	}
	if len(events) != 8 || events[0].Seq != 13 || events[7].Seq != 20 {
		t.Fatalf("post-wrap events = %d, first %d, last %d", len(events), events[0].Seq, events[len(events)-1].Seq)
	}
	if next != 20 {
		t.Fatalf("next = %d, want 20", next)
	}
	// A reader who kept up sees no eviction.
	events, next, evicted = j.Since(18, 0)
	if len(events) != 2 || evicted != 0 || next != 20 {
		t.Fatalf("Since(18) = %d events, next %d, evicted %d", len(events), next, evicted)
	}
	// A fully-evicted range reports the loss and a cursor at the ring edge.
	events, next, evicted = j.Since(2, 0)
	if evicted != 10 || len(events) != 8 {
		t.Fatalf("Since(2) = %d events, evicted %d; want 8, 10", len(events), evicted)
	}
	_ = next
}

func TestJournalSinceLimit(t *testing.T) {
	j := NewJournal(16)
	for i := 1; i <= 10; i++ {
		j.Append(Event{Kind: "k"})
	}
	events, next, _ := j.Since(0, 3)
	if len(events) != 3 || next != 3 {
		t.Fatalf("limited Since = %d events, next %d", len(events), next)
	}
	events, next, _ = j.Since(next, 3)
	if len(events) != 3 || events[0].Seq != 4 || next != 6 {
		t.Fatalf("second page = %d events, first %d, next %d", len(events), events[0].Seq, next)
	}
}

func TestJournalConcurrentAppendRead(t *testing.T) {
	j := NewJournal(64)
	var appenders sync.WaitGroup
	for w := 0; w < 4; w++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for i := 0; i < 2000; i++ {
				j.Append(Event{Kind: "k", Term: 1})
			}
		}()
	}
	done := make(chan struct{})
	go func() { appenders.Wait(); close(done) }()
	// Read concurrently from the main goroutine: delivered events must be
	// strictly ordered and never torn, however hard the ring is wrapping.
	var cursor uint64
	for {
		events, next, _ := j.Since(cursor, 0)
		for i, e := range events {
			if i > 0 && e.Seq <= events[i-1].Seq {
				t.Fatalf("out-of-order delivery: %d after %d", e.Seq, events[i-1].Seq)
			}
			if e.Kind != "k" || e.Term != 1 {
				t.Fatalf("torn event: %+v", e)
			}
		}
		cursor = next
		select {
		case <-done:
			if j.next.Load() != 8000 {
				t.Fatalf("Len = %d, want 8000", j.next.Load())
			}
			return
		default:
		}
	}
}

func TestHistogramQuantilePinned(t *testing.T) {
	// Bounds 1, 2, 4 with observations 0.5, 1.5, 1.7, 3, 8:
	// cumulative = [1, 3, 4, 5] over buckets (-inf,1], (1,2], (2,4], +Inf.
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 8} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		// rank 0.5*5 = 2.5 lands in (1,2] holding cum 1..3:
		// 1 + (2-1)*(2.5-1)/2 = 1.75
		{0.5, 1.75},
		// rank 0.2*5 = 1 lands in the first bucket: 0 + 1*(1/1) = 1
		{0.2, 1},
		// rank 0.8*5 = 4 lands in (2,4]: 2 + 2*(4-3)/1 = 4
		{0.8, 4},
		// rank 1.0*5 = 5 lands in +Inf: clamp to highest finite bound
		{1.0, 4},
	}
	for _, c := range cases {
		if got := h.Snapshot().Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := NewHistogram([]float64{1}).Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %g, want 0", got)
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	prev := h.Snapshot()
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(1.5)
	d := h.Snapshot().Sub(prev)
	if d.Count != 3 {
		t.Fatalf("interval count = %d, want 3", d.Count)
	}
	if math.Abs(d.Sum-2.5) > 1e-9 {
		t.Fatalf("interval sum = %g, want 2.5", d.Sum)
	}
	// Interval p50: rank 1.5 in first bucket (2 obs): 0 + 1*1.5/2 = 0.75.
	if got := d.Quantile(0.5); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("interval Quantile(0.5) = %g, want 0.75", got)
	}
}

// TestRegistryConcurrentRegisterRender races registration of new metric
// families and label instances against full expositions — run under
// -race in CI, this pins that a scrape never observes the registry
// mid-registration.
func TestRegistryConcurrentRegisterRender(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("race_ctr_%d", i%17), "h", Labels{"w": fmt.Sprint(w)}).Inc()
				r.Gauge(fmt.Sprintf("race_g_%d", i%11), "h", nil).Set(float64(i))
				r.Histogram("race_hist", "h", []float64{1, 2}, Labels{"w": fmt.Sprint(w)}).Observe(1)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "race_ctr_0") || !strings.Contains(sb.String(), "race_hist_bucket") {
		t.Fatalf("final exposition missing registered families:\n%s", sb.String())
	}
}
