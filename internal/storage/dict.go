package storage

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Dict is an order-preserving string dictionary. Codes assigned at build
// time respect lexicographic order, so range predicates on string
// attributes reduce to unsigned comparisons on codes. Values appended
// after the build (by inserts) receive the next free code; such codes are
// usable for equality but no longer order-preserving, which matches how
// the benchmarks use inserted values.
//
// The value table is published through an atomic pointer: any number of
// goroutines may decode codes (Value, Values, Len) concurrently with one
// appender (AppendCode). Appenders must be serialized externally — the
// service layer runs them under its commit mutex — while the code lookup
// side (Code, MustCode) shares the code map with the appender under an
// internal RWMutex, so lock-free snapshot readers may compile predicates
// while an insert grows the dictionary. Dictionaries are shared across
// MVCC catalog versions rather than copied: append-only codes mean a
// pinned snapshot's rows only ever reference the value-table prefix that
// existed when they were published.
type Dict struct {
	values atomic.Pointer[[]string] // value table in code order
	mu     sync.RWMutex             // guards code
	code   map[string]Word
	sorted int // values[:sorted] are in lexicographic order
}

func newDict(values []string, sorted int) *Dict {
	d := &Dict{code: make(map[string]Word, len(values)), sorted: sorted}
	d.values.Store(&values)
	for i, v := range values {
		d.code[v] = Word(i)
	}
	return d
}

// vals returns the current value table.
func (d *Dict) vals() []string { return *d.values.Load() }

// BuildDict constructs a dictionary over the distinct values of vals,
// assigning codes in lexicographic order.
func BuildDict(vals []string) *Dict {
	uniq := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		uniq[v] = struct{}{}
	}
	sorted := make([]string, 0, len(uniq))
	for v := range uniq {
		sorted = append(sorted, v)
	}
	sort.Strings(sorted)
	return newDict(sorted, len(sorted))
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.vals()) }

// Code returns the code of v, if present.
func (d *Dict) Code(v string) (Word, bool) {
	d.mu.RLock()
	c, ok := d.code[v]
	d.mu.RUnlock()
	return c, ok
}

// Lookup calls fn with a code lookup for values given as bytes, holding
// d's read lock around the call: code takes no lock of its own and does
// not allocate, so a load coding a batch column locks once, not once a
// cell. fn must not add values to d.
func (d *Dict) Lookup(fn func(code func(v []byte) (Word, bool))) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	fn(func(v []byte) (Word, bool) {
		c, ok := d.code[string(v)]
		return c, ok
	})
}

// MustCode returns the code of v or panics; for benchmark parameter
// binding, where the value is known to exist.
func (d *Dict) MustCode(v string) Word {
	c, ok := d.Code(v)
	if !ok {
		panic("storage: value not in dictionary: " + v)
	}
	return c
}

// AppendCode returns the code for v, assigning a fresh (non-order-
// preserving) code if v is new. The new value table is published
// atomically, so codes handed out earlier stay decodable by concurrent
// readers throughout.
func (d *Dict) AppendCode(v string) Word {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.code[v]; ok {
		return c
	}
	old := d.vals()
	c := Word(len(old))
	// append either reallocates (the old array stays untouched for readers
	// holding the previous header) or writes at an index beyond every
	// previously published length; the atomic store orders that write
	// before any reader can observe the new length.
	grown := append(old, v)
	d.values.Store(&grown)
	d.code[v] = c
	return c
}

// Value returns the string for a code.
func (d *Dict) Value(c Word) string { return d.vals()[c] }

// Values returns the dictionary's value table in code order: Values()[c]
// is the string encoded as code c. The returned slice is the stable
// serializable form of the dictionary; callers must not mutate it.
func (d *Dict) Values() []string { return d.vals() }

// SortedLen returns how many leading values are in lexicographic order —
// codes below this bound are order-preserving, codes at or above it were
// appended by inserts. Serialized alongside Values so a restored
// dictionary keeps the same order-preservation guarantee.
func (d *Dict) SortedLen() int { return d.sorted }

// RestoreDict reconstructs a dictionary from its serialized form: the
// value table in code order plus the order-preserving prefix length.
// Codes assigned by the restored dictionary are identical to the
// original's (value i gets code i), which keeps persisted column words
// valid.
func RestoreDict(values []string, sorted int) *Dict {
	if sorted < 0 {
		sorted = 0
	}
	if sorted > len(values) {
		sorted = len(values)
	}
	return newDict(append([]string(nil), values...), sorted)
}

// CodeSet is a bitset over dictionary codes, the compiled form of string
// predicates such as LIKE: the predicate is evaluated once per distinct
// value, and the per-tuple test becomes a single bit probe.
type CodeSet struct {
	bits []uint64
	n    int
}

// MatchCodes compiles pred into a CodeSet by evaluating it on every
// distinct value of the dictionary.
func (d *Dict) MatchCodes(pred func(string) bool) *CodeSet {
	vals := d.vals()
	cs := &CodeSet{bits: make([]uint64, (len(vals)+63)/64), n: len(vals)}
	for i, v := range vals {
		if pred(v) {
			cs.bits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return cs
}

// NewCodeSet builds a set holding exactly the given codes; n bounds the
// code space (codes >= n never match, mirroring MatchCodes over an n-value
// dictionary). Plan deserialization uses it to rebuild InSet predicates.
func NewCodeSet(codes []Word, n int) *CodeSet {
	if n < 0 {
		n = 0
	}
	cs := &CodeSet{bits: make([]uint64, (n+63)/64), n: n}
	for _, c := range codes {
		if c < Word(n) {
			cs.bits[c>>6] |= 1 << (c & 63)
		}
	}
	return cs
}

// Codes returns the member codes in ascending order — the serializable
// form of the set. It walks the bitset word-wise, skipping empty words,
// so sparse sets over large code spaces (the common shape of a compiled
// LIKE) cost O(space/64 + members), not O(space) — this runs on every
// ad-hoc query's cache-key computation.
func (cs *CodeSet) Codes() []Word {
	out := make([]Word, 0, cs.Count())
	for wi, w := range cs.bits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, Word(wi*64+b))
			w &^= 1 << b
		}
	}
	return out
}

// Size returns the bound of the set's code space (the dictionary length it
// was compiled against).
func (cs *CodeSet) Size() int { return cs.n }

// Contains reports whether code c is in the set.
func (cs *CodeSet) Contains(c Word) bool {
	if c >= Word(cs.n) {
		return false
	}
	return cs.bits[c>>6]&(1<<(c&63)) != 0
}

// Count returns the number of codes in the set.
func (cs *CodeSet) Count() int {
	total := 0
	for _, w := range cs.bits {
		total += bits.OnesCount64(w)
	}
	return total
}
