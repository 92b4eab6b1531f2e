package index

import "repro/internal/storage"

// HashIndex is an open-addressing hash table with linear probing from key
// word to row id. Duplicate keys occupy separate slots, so Lookup probes
// until the first empty slot; the structure therefore supports non-unique
// keys while keeping the unique-key fast path allocation-free.
type HashIndex struct {
	slots []hashSlot
	mask  uint64
	n     int
}

type hashSlot struct {
	key  storage.Word
	row  int32
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
	if h.n*10 >= len(h.slots)*7 {
		h.grow()
	}
	pos := hashWord(key) & h.mask
	for h.slots[pos].used {
		pos = (pos + 1) & h.mask
	}
	h.slots[pos] = hashSlot{key: key, row: row, used: true}
	h.n++
}

func (h *HashIndex) grow() {
	old := h.slots
	h.slots = make([]hashSlot, len(old)*2)
	h.mask = uint64(len(h.slots) - 1)
	h.n = 0
	for _, s := range old {
		if s.used {
			h.Insert(s.key, s.row)
		}
	}
}

// Lookup appends all row ids stored under key to dst.
func (h *HashIndex) Lookup(key storage.Word, dst []int32) []int32 {
	pos := hashWord(key) & h.mask
	for h.slots[pos].used {
		if h.slots[pos].key == key {
			dst = append(dst, h.slots[pos].row)
		}
		pos = (pos + 1) & h.mask
	}
	return dst
}

// Len returns the number of entries.
func (h *HashIndex) Len() int { return h.n }

// Clone copies the slot array; the copy grows and accepts inserts
// independently of the original.
func (h *HashIndex) Clone() Index {
	return &HashIndex{slots: append([]hashSlot(nil), h.slots...), mask: h.mask, n: h.n}
}

// Kind returns "hash".
func (h *HashIndex) Kind() string { return KindHash }
