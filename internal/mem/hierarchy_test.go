package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// smallGeometry is a scaled-down hierarchy so tests exercise capacity
// effects without large address streams.
func smallGeometry() Geometry {
	return Geometry{
		Levels: []Spec{
			{Name: "L1", Capacity: 512, BlockSize: 8, Assoc: 8, Latency: 1},
			{Name: "L2", Capacity: 4 << 10, BlockSize: 64, Assoc: 8, Latency: 3},
			{Name: "L3", Capacity: 64 << 10, BlockSize: 64, Assoc: 16, Latency: 8},
		},
		TLB:             Spec{Name: "TLB", Capacity: 32 << 10, BlockSize: 4 << 10, Assoc: 0, Latency: 1},
		Memory:          Spec{Name: "Memory", Capacity: 1 << 30, BlockSize: 64, Latency: 12},
		RegisterLatency: 1,
	}
}

func TestHierarchySequentialScanPrefetches(t *testing.T) {
	h := NewHierarchy(smallGeometry())
	// Scan 1 MB sequentially: far larger than the LLC, so every line must be
	// fetched — but the adjacent-line prefetcher should convert nearly all
	// LLC misses into prefetched hits.
	const bytes = 1 << 20
	for addr := uint64(0); addr < bytes; addr += 8 {
		h.Read(addr)
	}
	llc := h.LLCStats()
	lines := int64(bytes / 64)
	brought := llc.DemandMisses + llc.PrefetchedHits
	if brought < lines-1 || brought > lines+1 {
		t.Fatalf("lines brought = %d, want ~%d", brought, lines)
	}
	if llc.PrefetchedHits < lines*9/10 {
		t.Errorf("sequential scan: prefetched hits = %d of %d lines; prefetcher ineffective", llc.PrefetchedHits, lines)
	}
	if llc.DemandMisses > lines/10 {
		t.Errorf("sequential scan: demand (random) misses = %d of %d lines; expected almost none", llc.DemandMisses, lines)
	}
}

func TestHierarchyRandomAccessDoesNotPrefetchUsefully(t *testing.T) {
	h := NewHierarchy(smallGeometry())
	rng := rand.New(rand.NewSource(42))
	const region = 8 << 20 // 8 MB >> 64 KB LLC
	const n = 20000
	for i := 0; i < n; i++ {
		h.Read(uint64(rng.Intn(region/8)) * 8)
	}
	llc := h.LLCStats()
	if llc.PrefetchedHits > llc.Accesses/20 {
		t.Errorf("random access: %d of %d LLC accesses were prefetched hits; expected <5%%", llc.PrefetchedHits, llc.Accesses)
	}
	if llc.DemandMisses < llc.Accesses*8/10 {
		t.Errorf("random access far beyond LLC capacity should mostly miss: %d misses of %d accesses", llc.DemandMisses, llc.Accesses)
	}
}

func TestHierarchyStridedScanDetected(t *testing.T) {
	h := NewHierarchy(smallGeometry())
	// Stride of 3 lines (192 B): the adjacent-line prefetch is useless, but
	// the stride detector should kick in after two strides.
	const n = 4000
	for i := 0; i < n; i++ {
		h.Read(uint64(i) * 192)
	}
	llc := h.LLCStats()
	if llc.PrefetchedHits < int64(n)*8/10 {
		t.Errorf("strided scan: prefetched hits = %d of %d accesses; stride detector ineffective", llc.PrefetchedHits, n)
	}
}

func TestHierarchyRepeatedWorkingSetHitsInL1(t *testing.T) {
	h := NewHierarchy(smallGeometry())
	// 256 B working set fits L1 (512 B).
	for pass := 0; pass < 10; pass++ {
		for addr := uint64(0); addr < 256; addr += 8 {
			h.Read(addr)
		}
	}
	l1 := h.Stats(0)
	if l1.DemandMisses != 32 { // one cold miss per 8-byte L1 block
		t.Errorf("L1 demand misses = %d, want 32 cold misses only", l1.DemandMisses)
	}
	if l1.Hits != 10*32-32 {
		t.Errorf("L1 hits = %d, want %d", l1.Hits, 10*32-32)
	}
}

func TestHierarchyCyclesMonotoneAndReset(t *testing.T) {
	h := NewHierarchy(smallGeometry())
	h.Read(0)
	c1 := h.Cycles()
	if c1 <= 0 {
		t.Fatal("cycles must advance on access")
	}
	h.Read(1 << 20)
	if h.Cycles() <= c1 {
		t.Fatal("cycles must be monotone")
	}
	h.Reset()
	if h.Cycles() != 0 || h.LLCStats() != (Stats{}) || h.tlb.stats != (Stats{}) {
		t.Fatal("reset must clear cycles and stats")
	}
}

// TestHierarchyLatencyOrdering: an L1-resident access must cost less than
// an LLC-resident access, which must cost less than a memory access.
func TestHierarchyLatencyOrdering(t *testing.T) {
	g := smallGeometry()
	perAccess := func(prep func(h *Hierarchy), addr uint64) float64 {
		h := NewHierarchy(g)
		prep(h)
		before := h.Cycles()
		h.Read(addr)
		return h.Cycles() - before
	}
	l1Hit := perAccess(func(h *Hierarchy) { h.Read(64) }, 64)
	memMiss := perAccess(func(h *Hierarchy) { h.Read(64) }, 1<<25)
	if !(l1Hit < memMiss) {
		t.Fatalf("l1 hit (%v cycles) must be cheaper than memory miss (%v cycles)", l1Hit, memMiss)
	}
}

// TestHierarchyConservation: per-level counter identities hold on random
// streams mixing sequential runs and random jumps.
func TestHierarchyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHierarchy(smallGeometry())
		addr := uint64(0)
		for i := 0; i < 3000; i++ {
			switch rng.Intn(3) {
			case 0:
				addr += 8
			case 1:
				addr = uint64(rng.Intn(1 << 22))
			case 2:
				addr += 64
			}
			h.Read(addr)
		}
		for i := range h.caches {
			st := h.Stats(i)
			if st.Accesses != st.Hits+st.DemandMisses {
				return false
			}
			if st.PrefetchedHits > st.Hits {
				return false
			}
		}
		tlb := h.tlb.stats
		return tlb.Accesses == tlb.Hits+tlb.DemandMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyInclusionBackfill: after a hit at L3, the line must be
// resident at L1/L2 again.
func TestHierarchyInclusionBackfill(t *testing.T) {
	h := NewHierarchy(smallGeometry())
	h.Read(0)
	// Evict line 0 from L1 (capacity 512 B = 64 words) but not from L3.
	for a := uint64(4096); a < 4096+1024; a += 8 {
		h.Read(a)
	}
	// Address 0 is block 0 at every level.
	if h.caches[0].lookup(0) >= 0 {
		t.Fatal("test setup: line 0 should have been evicted from L1")
	}
	if h.caches[2].lookup(0) < 0 {
		t.Fatal("test setup: line 0 should still be in L3")
	}
	h.Read(0)
	if h.caches[0].lookup(0) < 0 || h.caches[1].lookup(0) < 0 {
		t.Error("hit at L3 must backfill L1 and L2")
	}
}

func TestTableIIIGeometry(t *testing.T) {
	g := TableIII()
	if got := g.Levels[len(g.Levels)-1].Capacity; got != 8<<20 {
		t.Errorf("LLC capacity = %d, want 8 MB", got)
	}
	if g.Levels[0].BlockSize != 8 || g.Levels[1].BlockSize != 64 {
		t.Error("Table III block sizes not reproduced")
	}
	wantLat := []float64{1, 3, 8}
	for i, l := range g.Levels {
		if l.Latency != wantLat[i] {
			t.Errorf("level %d latency = %v, want %v", i, l.Latency, wantLat[i])
		}
	}
	if g.Memory.Latency != 12 || g.TLB.Latency != 1 {
		t.Error("memory/TLB latency mismatch with Table III")
	}
	// Documented deviation: the TLB covers 8 MB (2048 pages) instead of the
	// printed 32 kB so page walks do not mask the cache cliffs of Fig. 8.
	if g.TLB.Blocks() != 2048 {
		t.Errorf("TLB entries = %d, want 2048 (8MB coverage / 4kB pages)", g.TLB.Blocks())
	}
}
