// Package mem provides a software model of a hierarchical memory system:
// set-associative caches, a TLB, and an adjacent cache-line prefetcher with
// stride detection at the last-level cache (LLC).
//
// The package serves two roles in the reproduction:
//
//  1. It is the measurement substrate that replaces the paper's hardware
//     performance counters. The simulator executes an address stream and
//     reports, per level, demand ("random") misses and prefetched
//     ("sequential") misses — the two quantities the paper reads from the
//     Nehalem counters in Figure 6.
//  2. Its Geometry type is the parameter block of the Generic Cost Model
//     (capacity, block size and access latency per level — the paper's
//     Table III).
package mem

// Spec describes one level of the memory hierarchy.
//
// Latency is the block access latency l_i of the Generic Cost Model: the
// number of CPU cycles charged for an access that is served by this level
// (equivalently, the penalty of a miss at the next-faster level).
type Spec struct {
	Name      string
	Capacity  int64 // total bytes (for the TLB: total address coverage)
	BlockSize int64 // bytes per cache line (for the TLB: the page size)
	Assoc     int   // set associativity; <=0 means fully associative
	Latency   float64
}

// Blocks returns the number of blocks the level holds.
func (s Spec) Blocks() int64 {
	if s.BlockSize <= 0 {
		return 0
	}
	return s.Capacity / s.BlockSize
}

// Geometry is a full description of the modeled memory system. The zero
// value is not useful; start from TableIII or NewGeometry.
type Geometry struct {
	// Levels holds the cache levels ordered fastest to slowest
	// (L1, L2, L3/LLC). The last entry is always treated as the LLC for
	// prefetching purposes.
	Levels []Spec
	TLB    Spec
	Memory Spec // Capacity/Assoc ignored; BlockSize is the transfer unit

	// RegisterLatency is l_1 of the cost model's register level: the cycles
	// needed to load and process one value that is already cached in L1.
	RegisterLatency float64
}

// TableIII returns the hierarchy parameters the paper reports for its
// Intel Xeon X5650 (Nehalem) evaluation machine (paper Table III).
//
//	Level      Capacity  Blocksize  Access Time
//	L1 Cache   32 kB     8 B        1 Cyc
//	L2 Cache   256 kB    64 B       3 Cyc
//	TLB        32 kB     4 kB       1 Cyc
//	L3 Cache   8 MB      64 B       8 Cyc
//	Memory     48 GB     64 B       12 Cyc
//
// The 8-byte L1 block reflects the model's register-word granularity: the
// paper treats CPU registers as "just another layer of memory" and models
// L1 accesses per 8-byte data word.
//
// One deliberate deviation: the paper prints the TLB capacity as 32 kB
// (8 pages of coverage). A Nehalem's two-level TLB covers megabytes, and
// with only 32 kB of coverage page walks would dominate every region
// larger than L1, masking the L2/L3 cliffs that the paper's Figure 8
// curve clearly shows. We therefore configure 8 MB of coverage (2048
// entries), which makes the TLB cliff coincide with the LLC cliff, as on
// the real machine; the per-access latency stays at the printed 1 cycle.
func TableIII() Geometry {
	return Geometry{
		Levels: []Spec{
			{Name: "L1", Capacity: 32 << 10, BlockSize: 8, Assoc: 8, Latency: 1},
			{Name: "L2", Capacity: 256 << 10, BlockSize: 64, Assoc: 8, Latency: 3},
			{Name: "L3", Capacity: 8 << 20, BlockSize: 64, Assoc: 16, Latency: 8},
		},
		TLB:             Spec{Name: "TLB", Capacity: 8 << 20, BlockSize: 4 << 10, Assoc: 0, Latency: 1},
		Memory:          Spec{Name: "Memory", Capacity: 48 << 30, BlockSize: 64, Latency: 12},
		RegisterLatency: 1,
	}
}
