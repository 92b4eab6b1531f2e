package obs

import "testing"

// BenchmarkPrimitives prices what an instrumented call site pays per
// event: one latency observation and one outcome count on every query's
// disarmed path, and one structured event into the bounded journal ring
// (role transitions, checkpoints and relayouts; never per query).
func BenchmarkPrimitives(b *testing.B) {
	b.Run("histogram-observe", func(b *testing.B) {
		h := NewHistogram([]float64{.001, .005, .025, .1, .5, 2.5})
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
	b.Run("counter-inc", func(b *testing.B) {
		c := NewRegistry().Counter("bench_ops_total", "benchmark counter", nil)
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("journal-append", func(b *testing.B) {
		j := NewJournal(DefaultJournalSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j.Append(Event{Kind: "bench", Msg: "journal append cost"})
		}
	})
}
