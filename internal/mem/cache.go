package mem

// Stats aggregates the per-level counters the experiments read out.
//
// The paper's terminology (Section IV-C.1) maps onto these counters as
// follows: on the LLC, "random misses" are DemandMisses (lines that had to
// be demand-fetched from memory) and "sequential misses" are PrefetchedHits
// (lines that were brought in by the prefetcher before the demand access
// arrived — the Nehalem counters report these as L3 accesses but not as L3
// misses, which is exactly how the paper separates the two).
type Stats struct {
	Accesses       int64 // demand accesses that reached this level
	Hits           int64 // demand accesses served by a resident line
	DemandMisses   int64 // demand accesses that had to fetch from below
	PrefetchedHits int64 // demand hits on lines installed by the prefetcher
	PrefetchFills  int64 // lines installed by prefetch requests
	Evictions      int64 // resident lines displaced (demand or prefetch)
}

type line struct {
	tag        uint64
	valid      bool
	prefetched bool // installed by the prefetcher and not yet demand-hit
	lastUse    int64
}

// cache is one set-associative LRU cache level.
type cache struct {
	spec  Spec
	shift uint  // log2(blockSize)
	sets  int64 // number of sets
	assoc int
	lines []line // sets*assoc, set-major
	clock int64
	stats Stats
}

func newCache(spec Spec) *cache {
	blocks := spec.Blocks()
	if blocks <= 0 {
		blocks = 1
	}
	assoc := spec.Assoc
	if assoc <= 0 || int64(assoc) > blocks {
		assoc = int(blocks) // fully associative
	}
	sets := blocks / int64(assoc)
	if sets < 1 {
		sets = 1
	}
	return &cache{
		spec:  spec,
		shift: log2(uint64(spec.BlockSize)),
		sets:  sets,
		assoc: assoc,
		lines: make([]line, sets*int64(assoc)),
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func (c *cache) blockOf(addr uint64) uint64 { return addr >> c.shift }

// lookup probes the cache for addr without filling. It returns the slot
// index if resident, or -1.
func (c *cache) lookup(block uint64) int {
	set := int64(block) % c.sets
	base := set * int64(c.assoc)
	for i := int64(0); i < int64(c.assoc); i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == block {
			return int(base + i)
		}
	}
	return -1
}

// access performs a demand access for the block containing addr.
// It returns (hit, wasPrefetched): hit is true if the line was resident;
// wasPrefetched is true if the resident line had been installed by the
// prefetcher and this is its first demand touch.
func (c *cache) access(addr uint64) (hit, wasPrefetched bool) {
	c.clock++
	c.stats.Accesses++
	block := c.blockOf(addr)
	if idx := c.lookup(block); idx >= 0 {
		l := &c.lines[idx]
		l.lastUse = c.clock
		if l.prefetched {
			l.prefetched = false
			c.stats.PrefetchedHits++
			c.stats.Hits++
			return true, true
		}
		c.stats.Hits++
		return true, false
	}
	c.stats.DemandMisses++
	c.fill(block, false)
	return false, false
}

// prefetch installs the block containing addr if absent. It never counts
// as a demand access.
func (c *cache) prefetch(addr uint64) {
	block := c.blockOf(addr)
	if c.lookup(block) >= 0 {
		return
	}
	c.stats.PrefetchFills++
	c.fill(block, true)
}

func (c *cache) fill(block uint64, prefetched bool) {
	c.clock++
	set := int64(block) % c.sets
	base := set * int64(c.assoc)
	victim := base
	for i := int64(0); i < int64(c.assoc); i++ {
		l := &c.lines[base+i]
		if !l.valid {
			victim = base + i
			goto place
		}
		if l.lastUse < c.lines[victim].lastUse {
			victim = base + i
		}
	}
	c.stats.Evictions++
place:
	c.lines[victim] = line{tag: block, valid: true, prefetched: prefetched, lastUse: c.clock}
}

func (c *cache) reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.clock = 0
	c.stats = Stats{}
}
