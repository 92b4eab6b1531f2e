// Package joinpar parallelizes the hash-join build — the second pipeline
// breaker — on the shared morsel scheduler: build rows are radix-
// partitioned by a hash of the join key (parallel histogram over morsels,
// prefix sums, then an order-preserving parallel scatter into cache-sized
// partitions), and the per-partition hash tables are built in parallel,
// since partitions are independent. Probes route by the same radix
// function, so a lookup touches exactly one partition.
//
// Determinism contract: within a partition, rows land in original build
// order (morsel ranges are scattered at offsets ordered by morsel index,
// and a key's rows all hash to one partition), so every key's match list
// enumerates build rows in exactly the order the serial flat-buffer build
// produced — probe outputs are bit-identical to the serial engines'.
package joinpar

import (
	"repro/internal/exec/par"
	"repro/internal/storage"
)

// minPartitionRows is the build size below which partitioning is skipped:
// a small build fits in cache anyway, and the histogram+scatter passes
// would cost more than they save.
const minPartitionRows = 16 << 10

// maxPartitionBits caps the fan-out at 256 partitions; beyond that the
// scatter's per-morsel cursor working set stops fitting in L1.
const maxPartitionBits = 8

// hashMul is the Fibonacci multiplier; the top bits of k*hashMul
// distribute well even for sequential keys.
const hashMul storage.Word = 0x9E3779B97F4A7C15

// Table is a (possibly radix-partitioned) hash-join build side. A Table is
// immutable after Build and safe for concurrent probes.
type Table struct {
	shift uint // 64 - partition bits; 64 selects partition 0 for every key
	parts []part
}

// part holds one partition's build rows (flat, row-major, stride width)
// and its key → local row index table.
type part struct {
	build []storage.Word
	table map[storage.Word][]int32
}

// source abstracts how build rows are addressed, so the slice-of-rows
// (jit) and flat-buffer (vector) producers share one partitioning
// pipeline. buildFrom instantiates per concrete type, keeping the hot
// loops devirtualized.
type source interface {
	keyAt(i int) storage.Word
	rowAt(i int) []storage.Word
}

type sliceSrc struct {
	rows [][]storage.Word
	key  int
}

func (s sliceSrc) keyAt(i int) storage.Word   { return s.rows[i][s.key] }
func (s sliceSrc) rowAt(i int) []storage.Word { return s.rows[i] }

type flatSrc struct {
	flat       []storage.Word
	key, width int
}

func (s flatSrc) keyAt(i int) storage.Word   { return s.flat[i*s.width+s.key] }
func (s flatSrc) rowAt(i int) []storage.Word { return s.flat[i*s.width : (i+1)*s.width] }

// Build constructs the join table over materialized build rows. key is
// the join-key column, width the row arity. Serial options (or a small
// build) produce a single flat partition — exactly the layout the engines
// built inline before partitioning existed.
func Build(rows [][]storage.Word, key, width int, opt par.Options) *Table {
	return buildFrom(sliceSrc{rows: rows, key: key}, len(rows), key, width, opt)
}

// BuildFlat constructs the join table from an already-flat row-major
// buffer (stride width), the form batch-at-a-time producers assemble
// directly. Serial options adopt the buffer as the single partition
// without copying; parallel options radix-partition out of it.
func BuildFlat(flat []storage.Word, key, width int, opt par.Options) *Table {
	n := 0
	if width > 0 {
		n = len(flat) / width
	}
	if pickBits(n, opt) == 0 {
		t := &Table{shift: 64, parts: make([]part, 1)}
		p := &t.parts[0]
		p.build = flat
		p.table = make(map[storage.Word][]int32, n)
		for i := 0; i < n; i++ {
			k := flat[i*width+key]
			p.table[k] = append(p.table[k], int32(i))
		}
		return t
	}
	return buildFrom(flatSrc{flat: flat, key: key, width: width}, n, key, width, opt)
}

// buildFrom is the shared pipeline: serial fallback, or histogram →
// prefix sums → order-preserving scatter → per-partition tables.
func buildFrom[S source](src S, n, key, width int, opt par.Options) *Table {
	bits := pickBits(n, opt)
	if bits == 0 {
		t := &Table{shift: 64, parts: make([]part, 1)}
		p := &t.parts[0]
		p.build = make([]storage.Word, 0, n*width)
		p.table = make(map[storage.Word][]int32, n)
		for i := 0; i < n; i++ {
			p.build = append(p.build, src.rowAt(i)...)
			k := src.keyAt(i)
			p.table[k] = append(p.table[k], int32(i))
		}
		return t
	}

	P := 1 << bits
	shift := uint(64 - bits)
	t := &Table{shift: shift, parts: make([]part, P)}
	morsels := opt.Morsels(n)

	// Phase 1: per-morsel histograms (workers own disjoint count ranges).
	counts := make([]int32, morsels*P)
	par.Run(n, opt, func(_, m, lo, hi int) {
		c := counts[m*P : (m+1)*P]
		for i := lo; i < hi; i++ {
			c[(src.keyAt(i)*hashMul)>>shift]++
		}
	})

	// Prefix sums: offsets[m*P+p] is morsel m's first slot in partition p.
	// Ordering offsets by morsel index is what preserves original row
	// order inside each partition.
	offsets := make([]int32, morsels*P)
	for p := 0; p < P; p++ {
		var acc int32
		for m := 0; m < morsels; m++ {
			offsets[m*P+p] = acc
			acc += counts[m*P+p]
		}
		t.parts[p].build = make([]storage.Word, int(acc)*width)
	}

	// Phase 2: scatter. Each morsel advances its own offset cursors, so
	// workers write disjoint slots of the shared partition buffers.
	par.Run(n, opt, func(_, m, lo, hi int) {
		cur := offsets[m*P : (m+1)*P]
		for i := lo; i < hi; i++ {
			row := src.rowAt(i)
			p := (row[key] * hashMul) >> shift
			copy(t.parts[p].build[int(cur[p])*width:], row)
			cur[p]++
		}
	})

	// Phase 3: per-partition tables, one partition per scheduler unit
	// (partitions are independent).
	par.Run(P, par.Options{Workers: opt.Workers, MorselRows: 1, Pool: opt.Pool}, func(_, p, _, _ int) {
		pt := &t.parts[p]
		rowsIn := len(pt.build) / width
		tbl := make(map[storage.Word][]int32, rowsIn)
		for i := 0; i < rowsIn; i++ {
			k := pt.build[i*width+key]
			tbl[k] = append(tbl[k], int32(i))
		}
		pt.table = tbl
	})
	return t
}

// pickBits sizes the radix fan-out: zero (one flat partition) for serial
// execution or small builds, otherwise roughly 4 partitions per worker so
// the per-partition table builds load-balance, capped at 2^8.
func pickBits(n int, opt par.Options) int {
	if !opt.Parallel() || n < minPartitionRows {
		return 0
	}
	target := 4 * opt.WorkerCount()
	bits := 3
	for 1<<bits < target && bits < maxPartitionBits {
		bits++
	}
	return bits
}

// Lookup returns the match list for a key and the flat build buffer the
// matches index into (stride = the build arity). The compiler keeps this
// small enough to inline into the engines' probe loops.
func (t *Table) Lookup(k storage.Word) ([]int32, []storage.Word) {
	p := &t.parts[(k*hashMul)>>t.shift]
	return p.table[k], p.build
}
