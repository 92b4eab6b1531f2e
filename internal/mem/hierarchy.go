package mem

// Hierarchy simulates a full memory system: an ordered list of
// set-associative cache levels, a TLB consulted in parallel with L1, and an
// adjacent cache-line prefetcher with stride detection that operates on the
// last-level cache, as assumed by the paper's cost model (Section IV-A.1,
// the Intel Core microarchitecture strategy).
//
// The simulator is driven by an address stream (Read/Write calls) and
// accounts cycles with the same l_i weights the cost model uses, so that
// model predictions and "measured" simulator counts are directly
// comparable — this is the reproduction's stand-in for the paper's CPU
// performance counters.
type Hierarchy struct {
	geom   Geometry
	caches []*cache
	tlb    *cache

	cycles float64

	// Prefetcher state: the stride detector tracks the last demand-accessed
	// LLC line and the last observed stride (in lines). When two successive
	// demand accesses exhibit the same non-zero stride, the next line in
	// that direction is prefetched into the LLC.
	pfLastLine   uint64
	pfLastStride int64
	pfPrimed     bool // pfLastLine is valid
	pfConfident  bool // pfLastStride is valid
}

// NewHierarchy builds a simulator for the given geometry.
func NewHierarchy(g Geometry) *Hierarchy {
	h := &Hierarchy{geom: g}
	for _, spec := range g.Levels {
		h.caches = append(h.caches, newCache(spec))
	}
	h.tlb = newCache(g.TLB)
	return h
}

// Cycles returns the total simulated cycle count so far.
func (h *Hierarchy) Cycles() float64 { return h.cycles }

// Stats returns the counters of cache level i (0 = L1).
func (h *Hierarchy) Stats(i int) Stats { return h.caches[i].stats }

// LLCStats returns the counters of the last-level cache.
func (h *Hierarchy) LLCStats() Stats { return h.caches[len(h.caches)-1].stats }

// Reset clears all cache contents, counters, cycles and prefetcher state.
func (h *Hierarchy) Reset() {
	for _, c := range h.caches {
		c.reset()
	}
	h.tlb.reset()
	h.cycles = 0
	h.pfPrimed = false
	h.pfConfident = false
}

// Read performs one demand load of the word at addr. Accesses are modeled
// at word granularity; an 8-byte aligned word never spans two 64-byte
// lines, so a single probe per level suffices.
func (h *Hierarchy) Read(addr uint64) {
	h.access(addr)
}

func (h *Hierarchy) access(addr uint64) {
	// Address translation: the TLB is consulted for every access. A TLB
	// miss costs a page-walk, charged at memory latency.
	if hit, _ := h.tlb.access(addr); hit {
		h.cycles += h.geom.TLB.Latency
	} else {
		h.cycles += h.geom.TLB.Latency + h.geom.Memory.Latency
	}

	// Register/processing cost: loading and handling the value itself.
	h.cycles += h.geom.RegisterLatency

	llc := len(h.caches) - 1
	for i, c := range h.caches {
		hit, _ := c.access(addr)
		h.cycles += c.spec.Latency
		if i == llc {
			h.prefetchStep(c, addr, hit)
		}
		if hit {
			// Backfill faster levels so the inclusive hierarchy stays
			// consistent (the line is now resident above as well).
			for j := 0; j < i; j++ {
				h.caches[j].fill(h.caches[j].blockOf(addr), false)
			}
			return
		}
	}
	// Missed everywhere: fetch from memory.
	h.cycles += h.geom.Memory.Latency
}

// prefetchStep implements the Adjacent Cache Line Prefetcher with Stride
// Detection the paper's model assumes (Section IV-A.1): every demand access
// to LLC line k triggers a prefetch of line k+1 (so a line is resident as a
// prefetched line exactly when its predecessor was accessed — the premise
// of Equation 2), and a detector that observes two successive accesses with
// the same non-unit stride prefetches the next line in that stride.
//
// Prefetch fills are charged no cycles: the model's premise is that a
// correct prefetch hides memory latency behind processing (Eq. 5);
// mispredicted prefetches waste bandwidth but the simulator, like the
// paper's model, does not charge a cycle penalty for them.
func (h *Hierarchy) prefetchStep(llc *cache, addr uint64, hit bool) {
	lineNo := llc.blockOf(addr)
	// Adjacent-line component: unconditionally stage the successor line.
	llc.prefetch((lineNo + 1) << llc.shift)
	if h.pfPrimed {
		stride := int64(lineNo) - int64(h.pfLastLine)
		if stride != 0 {
			if h.pfConfident && stride == h.pfLastStride && stride != 1 {
				next := int64(lineNo) + stride
				if next >= 0 {
					llc.prefetch(uint64(next) << llc.shift)
				}
			}
			h.pfLastStride = stride
			h.pfConfident = true
			h.pfLastLine = lineNo
		}
		// stride == 0: same line again; keep detector state unchanged.
	} else {
		h.pfLastLine = lineNo
		h.pfPrimed = true
	}
	_ = hit
}
