package index

import (
	mbits "math/bits"
	"slices"

	"repro/internal/exec/par"
	"repro/internal/storage"
)

// HashIndex is an open-addressing hash table with linear probing from key
// word to row ids. Every distinct key takes one slot. A key's one row sits
// in its slot; a key with more rows keeps them, in the order they were
// put, in a list of dups, so a unique-key Lookup reads one slot and
// inserting n rows of one key costs O(n), not O(n²) probes.
type HashIndex struct {
	slots []hashSlot
	dups  [][]int32 // the row lists of keys with more than one row
	mask  uint64
	n     int // rows
	keys  int // used slots
}

type hashSlot struct {
	key  storage.Word
	row  int32 // the key's row, or ^i for the rows in dups[i]
	used bool
}

// NewHashIndex creates a hash index sized for the expected entry count.
func NewHashIndex(expected int) *HashIndex {
	capacity := 16
	for capacity < expected*2 {
		capacity <<= 1
	}
	return &HashIndex{slots: make([]hashSlot, capacity), mask: uint64(capacity - 1)}
}

// hashWord mixes the key (SplitMix64 finalizer).
func hashWord(w storage.Word) uint64 {
	w ^= w >> 30
	w *= 0xbf58476d1ce4e5b9
	w ^= w >> 27
	w *= 0x94d049bb133111eb
	w ^= w >> 31
	return w
}

// Insert registers row under key, growing at 70% load.
func (h *HashIndex) Insert(key storage.Word, row int32) {
	if h.keys*10 >= len(h.slots)*7 {
		h.grow(len(h.slots) * 2)
	}
	h.put(key, row)
	h.n++
}

// put adds row to key's slot, or to the first free slot from the key's
// home slot on, wrapping at the end of the table. A key's rows are kept
// in the order they were put.
func (h *HashIndex) put(key storage.Word, row int32) {
	pos := hashWord(key) & h.mask
	for h.slots[pos].used && h.slots[pos].key != key {
		pos = (pos + 1) & h.mask
	}
	s := &h.slots[pos]
	switch {
	case !s.used:
		*s = hashSlot{key: key, row: row, used: true}
		h.keys++
	case s.row >= 0:
		h.dups = append(h.dups, []int32{s.row, row})
		s.row = ^int32(len(h.dups) - 1)
	default:
		h.dups[^s.row] = append(h.dups[^s.row], row)
	}
}

// grow rehashes the slots into size slots; the row lists stay where they
// are.
func (h *HashIndex) grow(size int) {
	old := h.slots
	h.slots = make([]hashSlot, size)
	h.mask = uint64(size - 1)
	for _, s := range old {
		if s.used {
			pos := hashWord(s.key) & h.mask
			for h.slots[pos].used {
				pos = (pos + 1) & h.mask
			}
			h.slots[pos] = s
		}
	}
}

// build inserts every row of acc into the empty index as if one by one
// in row order. Under parallel options the row ids are first partitioned
// by the top bits of their key's home slot (partition), and each
// partition fills its own slot range as one morsel on opt's workers
// (fill); with one partition the whole table is that range. A row whose
// probe would run past its range is put afterwards, in row order,
// wrapping like Insert. All rows of a key share a partition, so Lookup
// returns each key's rows in ascending order, the same lists a serial
// build gives.
func (h *HashIndex) build(acc storage.Accessor, rows int, opt par.Options) {
	size := len(h.slots)
	for rows*10 >= size*7 {
		size *= 2
	}
	if size > len(h.slots) {
		h.grow(size)
	}
	bits := partitionBits(len(h.slots), rows, opt)
	parts := 1 << bits
	shift := uint(mbits.Len64(h.mask)) - uint(bits)
	start := []int{0, rows}
	var moved []hashSlot // entries by partition; nil when one partition holds every row in order
	if parts > 1 {
		start, moved = h.partition(acc, rows, parts, shift, opt)
	}

	fills := make([]partFill, parts)
	par.Run(parts, par.Options{Pool: opt.Pool, MorselRows: 1}, func(_, p, _, _ int) {
		fills[p] = h.fill(acc, moved, start[p], start[p+1], uint64(p+1)<<shift)
	})
	lists := 0
	for _, f := range fills {
		lists += len(f.lists)
	}
	h.dups = slices.Grow(h.dups, lists)
	for _, f := range fills {
		h.keys += f.keys
		for i, pos := range f.pos {
			h.slots[pos].row = ^int32(len(h.dups))
			h.dups = append(h.dups, f.lists[i])
		}
	}
	for _, f := range fills {
		for _, e := range f.over {
			h.put(e.key, e.row)
		}
	}
	h.n += rows
}

// partFill is what one partition's fill leaves for build to merge.
type partFill struct {
	keys  int        // slots taken
	pos   []uint64   // the slots of keys with more than one row
	lists [][]int32  // those keys' rows, ascending
	over  []hashSlot // the rows whose probe ran past the range, in row order
}

// fill puts entries [lo, hi) of a build (moved's, or acc's rows when
// moved is nil) into the slots below end. A row takes a free slot, or
// counts towards its key's row list when the key has a slot already; a
// key's slot then numbers its list within the partition until build
// renumbers it. The lists are cut from one array sized by those counts,
// and a second pass over the entries fills them, so a build allocates
// one row-list entry per row of a repeated key and nothing per row else.
func (h *HashIndex) fill(acc storage.Accessor, moved []hashSlot, lo, hi int, end uint64) (f partFill) {
	var firsts []int32 // each list's first row, the one in its slot
	var counts []int   // each list's rows after the first
	for i := lo; i < hi; i++ {
		e := buildEntry(acc, moved, i)
		pos := h.probe(e.key, end)
		if pos == end {
			f.over = append(f.over, e)
			continue
		}
		switch s := &h.slots[pos]; {
		case !s.used:
			*s = e
			f.keys++
		case s.row >= 0:
			firsts = append(firsts, s.row)
			counts = append(counts, 1)
			f.pos = append(f.pos, pos)
			s.row = ^int32(len(counts) - 1)
		default:
			counts[^s.row]++
		}
	}
	if len(counts) == 0 {
		return f
	}
	n := 0
	for _, c := range counts {
		n += 1 + c
	}
	flat := make([]int32, 0, n)
	f.lists = make([][]int32, len(counts))
	for k, c := range counts {
		at := len(flat)
		flat = append(flat, firsts[k])
		f.lists[k] = flat[at : at+1 : at+1+c]
		flat = flat[:at+1+c]
	}
	for i := lo; i < hi; i++ {
		e := buildEntry(acc, moved, i)
		if pos := h.probe(e.key, end); pos < end {
			if s := h.slots[pos]; s.row < 0 && e.row != firsts[^s.row] {
				f.lists[^s.row] = append(f.lists[^s.row], e.row)
			}
		}
	}
	return f
}

// buildEntry is entry i of a build: moved's, or row i of acc.
func buildEntry(acc storage.Accessor, moved []hashSlot, i int) hashSlot {
	if moved != nil {
		return moved[i]
	}
	return hashSlot{key: acc.At(i), row: int32(i), used: true}
}

// probe returns the slot of key, or the first free slot, from key's home
// slot on but below end; end when there is neither.
func (h *HashIndex) probe(key storage.Word, end uint64) uint64 {
	pos := hashWord(key) & h.mask
	for pos < end && h.slots[pos].used && h.slots[pos].key != key {
		pos++
	}
	return pos
}

// partition radix-partitions the rows by the top bits of their key's
// home slot (the slot index shifted right by shift): a histogram per
// morsel, prefix sums ordered by morsel, then a scatter of each row's
// key and id that keeps row order within each partition. Partition p's
// entries are moved[start[p]:start[p+1]].
func (h *HashIndex) partition(acc storage.Accessor, rows, parts int, shift uint, opt par.Options) (start []int, moved []hashSlot) {
	home := func(key storage.Word) int { return int((hashWord(key) & h.mask) >> shift) }
	morsels := opt.Morsels(rows)
	counts := make([]int, morsels*parts)
	keys := make([]storage.Word, rows)
	par.Run(rows, opt, func(_, m, lo, hi int) {
		c := counts[m*parts : (m+1)*parts]
		for row := lo; row < hi; row++ {
			keys[row] = acc.At(row)
			c[home(keys[row])]++
		}
	})
	start = make([]int, parts+1)
	offsets := make([]int, morsels*parts)
	for p, at := 0, 0; p < parts; p++ {
		start[p] = at
		for m := 0; m < morsels; m++ {
			offsets[m*parts+p] = at
			at += counts[m*parts+p]
		}
	}
	start[parts] = rows
	moved = make([]hashSlot, rows)
	par.Run(rows, opt, func(_, m, lo, hi int) {
		cur := offsets[m*parts : (m+1)*parts]
		for row, key := range keys[lo:hi] {
			p := home(key)
			moved[cur[p]] = hashSlot{key: key, row: int32(lo + row), used: true}
			cur[p]++
		}
	})
	return start, moved
}

// partitionBits sizes build's fan-out: none for serial options or a
// small build, otherwise about four partitions per worker so the
// partition fills balance, and more while a partition's slot range
// would not fit a core's cache, capped at 256.
func partitionBits(slots, rows int, opt par.Options) int {
	if !opt.Parallel() || rows < minPartitionRows {
		return 0
	}
	bits := 0
	for (1<<bits < 4*opt.WorkerCount() || slots>>bits > partitionSlots) && bits < 8 {
		bits++
	}
	return bits
}

// partitionSlots is the most slots a partition's range should span:
// 1 MiB of slots, which stay in a core's L2 cache while it fills them.
const partitionSlots = 1 << 16

// minPartitionRows is the build size below which build does not
// partition: the histogram and scatter would cost more than they save.
const minPartitionRows = 16 << 10

// Lookup appends all row ids stored under key to dst.
func (h *HashIndex) Lookup(key storage.Word, dst []int32) []int32 {
	pos := hashWord(key) & h.mask
	for s := &h.slots[pos]; s.used; s = &h.slots[pos] {
		if s.key == key {
			if s.row < 0 {
				return append(dst, h.dups[^s.row]...)
			}
			return append(dst, s.row)
		}
		pos = (pos + 1) & h.mask
	}
	return dst
}

// Len returns the number of entries.
func (h *HashIndex) Len() int { return h.n }

// Clone copies the slot array and the row lists' headers, capped at their
// lengths: an append through the copy copies a list first, and one
// through the original writes past what the copy reads. The copy grows
// and accepts inserts independently of the original.
func (h *HashIndex) Clone() Index {
	dups := make([][]int32, len(h.dups))
	for i, d := range h.dups {
		dups[i] = slices.Clip(d)
	}
	return &HashIndex{slots: slices.Clone(h.slots), dups: dups, mask: h.mask, n: h.n, keys: h.keys}
}

// Kind returns "hash".
func (h *HashIndex) Kind() string { return KindHash }
