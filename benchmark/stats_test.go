package main

import (
	"math"
	"testing"

	"repro/internal/exec/result"
	"repro/internal/plan"
	"repro/internal/storage"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 95, 7},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 75, 3},
		{[]float64{1, 2, 3, 4}, 76, 4},
		{hundred, 95, 95},
		{hundred, 99, 99},
		{hundred, 100, 100},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Errorf("median sorted its argument in place: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestPerSecondDropsTheEnds(t *testing.T) {
	at := func(sec float64) sample { return sample{done: int64(sec * 1e9)} }
	samples := []sample{
		at(0.1), at(0.5), // second 0: dropped
		at(1.0), at(1.5), // second 1: 2 completions in the 1.0 s since 0.5
		at(2.0),                                                                                         // second 2: 1 completion in 0.5 s
		at(3.1), at(3.2), at(3.3), at(3.4), at(3.5), at(3.6), at(3.7), at(3.8), at(3.9), at(4.0 - 1e-9), // a busy second
		at(4.5), // second 4: dropped
		at(5.2), // past the window
	}
	got := perSecond(samples, 5)
	want := []float64{2, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("perSecond = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("perSecond = %v, want %v", got, want)
		}
	}
	if m := median(got); math.Abs(m-2) > 1e-6 {
		t.Errorf("median of per-second rates = %v, want 2: one busy second must not move it", m)
	}
	if perSecond(samples, 2) != nil {
		t.Errorf("a two-second window has no middle seconds")
	}
	if got := perSecond([]sample{at(0.5), at(2.5)}, 4); len(got) != 2 || got[0] != 0 || math.Abs(got[1]-0.5) > 1e-9 {
		t.Errorf("perSecond with an empty second = %v, want [0 0.5]", got)
	}
}

func TestVariation(t *testing.T) {
	if cv := variation([]float64{10, 10, 10}); cv != 0 {
		t.Errorf("variation of equal values = %v", cv)
	}
	if cv := variation([]float64{5, 15}); !near(cv, 0.5) {
		t.Errorf("variation(5, 15) = %v, want 0.5", cv)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 15, 14, 13, 100}, 4.0 / 13},
		{[]float64{5, 7}, 0.5},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(tc.values); !near(got, tc.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}

func TestBoundDerivation(t *testing.T) {
	if w := worstDeviation([]float64{100, 104, 97}); !near(w, 0.04) {
		t.Errorf("worstDeviation = %v, want 0.04", w)
	}
	for _, tc := range []struct{ worst, want float64 }{
		{0, 0.05},
		{0.02, 0.05},
		{0.025, 0.05},
		{0.031, 0.07},
		{0.04, 0.08},
		{0.0501, 0.11},
	} {
		if got := deriveBound(tc.worst); !near(got, tc.want) {
			t.Errorf("deriveBound(%v) = %v, want %v", tc.worst, got, tc.want)
		}
	}
	if w := worseBy(100, 90, true); !near(w, 0.1) {
		t.Errorf("a rate falling from 100 to 90 is worse by %v, want 0.1", w)
	}
	if w := worseBy(100, 90, false); !near(w, -0.1) {
		t.Errorf("a latency falling from 100 to 90 is worse by %v, want -0.1", w)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "http.roundtrip", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Req: 1, Name: "service.handler", Start: 20_000, End: 80_000},
		{ID: 3, Parent: 0, Req: 1, Name: "replay", Start: 100_000, End: 150_000},
		{ID: 4, Parent: 3, Req: 1, Name: "plan.decode", Start: 101_000, End: 111_000},
		{ID: 5, Parent: 3, Req: 1, Name: "service.query", Start: 112_000, End: 142_000},
		{ID: 6, Parent: 3, Req: 1, Name: "jit.exec", Start: 143_000, End: 149_000},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{
		"http.roundtrip":  40, // 100 minus the handler's 60
		"service.handler": 60,
		"replay":          4, // 50 minus 10, 30 and 6
		"plan.decode":     10,
	} {
		if got := median(self[name]); !near(got, want) {
			t.Errorf("self time of %s = %v us, want %v", name, got, want)
		}
	}
	reqs := byRequest(spans)
	derive(reqs, "left", "service.query", "jit.exec", "plan.decode")
	if got := medianOf(reqs, "left"); !near(got, 14) {
		t.Errorf("derived stage = %v us, want 30 - 6 - 10", got)
	}
	if got := medianShare(reqs, "left", "service.handler"); !near(got, 14.0/60) {
		t.Errorf("share of the handler = %v, want 14/60", got)
	}
	derive(reqs, "none", "service.query", "core.pin")
	if got := medianOf(reqs, "none"); got != 0 {
		t.Errorf("a stage derived from a span no request recorded = %v, want 0", got)
	}
}

func TestScanRowCount(t *testing.T) {
	for _, tc := range []struct {
		tail string
		want int
		ok   bool
	}{
		{`,9]],"rowCount":10000,"micros":512}` + "\n", 10000, true},
		{`"rowCount":1,"micros":3}`, 1, true},
		{`{"error":"plan: invalid field"}`, 0, false},
		{`"rowCount":x`, 0, false},
	} {
		got, ok := scanRowCount([]byte(tc.tail))
		if got != tc.want || ok != tc.ok {
			t.Errorf("scanRowCount(%q) = %d, %v; want %d, %v", tc.tail, got, ok, tc.want, tc.ok)
		}
	}
}

// The gate must trip when the served rows are not the expected ones.
func TestGateTripsOnWrongExpectation(t *testing.T) {
	cols := []plan.Column{{Name: "n", Type: storage.Int64}, {Name: "x", Type: storage.Float64}}
	reply := []byte(`{"cols":[{"name":"n","type":"int64"},{"name":"x","type":"float64"}],"rows":[[2,0.5],[1,1.25]],"rowCount":2,"micros":7}`)
	got, err := decodeReply(reply, cols)
	if err != nil {
		t.Fatal(err)
	}
	want := result.New(cols)
	want.Append([]storage.Word{storage.EncodeInt(1), storage.EncodeFloat(1.25)})
	want.Append([]storage.Word{storage.EncodeInt(2), storage.EncodeFloat(0.5)})
	if err := sameRows(got, want); err != nil {
		t.Errorf("equal rows in another order must pass: %v", err)
	}

	wrong := result.New(cols)
	wrong.Append([]storage.Word{storage.EncodeInt(1), storage.EncodeFloat(1.25)})
	wrong.Append([]storage.Word{storage.EncodeInt(2), storage.EncodeFloat(0.75)})
	if err := sameRows(got, wrong); err == nil {
		t.Error("a differing cell passed the gate")
	}
	short := result.New(cols)
	short.Append([]storage.Word{storage.EncodeInt(1), storage.EncodeFloat(1.25)})
	if err := sameRows(got, short); err == nil {
		t.Error("a missing row passed the gate")
	}
	if _, err := decodeReply([]byte(`{"cols":[{"name":"n","type":"int64"},{"name":"x","type":"float64"}],"rows":[[2,0.5]],"rowCount":2}`), cols); err == nil {
		t.Error("a rowCount that disagrees with the rows passed the gate")
	}
	if _, err := decodeReply(reply, cols[:1]); err == nil {
		t.Error("a reply with another column count passed the gate")
	}
}
