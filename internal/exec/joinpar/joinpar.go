// Package joinpar builds the hash-join table — the second pipeline
// breaker — from materialized build rows, the one form every engine
// drains its build side into. Under parallel options (jit on a shared
// pool) the build runs on the morsel scheduler: build rows are radix-
// partitioned by a hash of the join key (parallel histogram over morsels,
// prefix sums, then an order-preserving parallel scatter into cache-sized
// partitions), and the per-partition hash tables are built in parallel,
// since partitions are independent. Probes route by the same radix
// function, so a lookup touches exactly one partition.
//
// Determinism contract: within a partition, rows land in original build
// order (morsel ranges are scattered at offsets ordered by morsel index,
// and a key's rows all hash to one partition), so every key's match list
// enumerates build rows in exactly the order the serial build produces —
// probe outputs are bit-identical to the serial engines'.
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

// Build constructs the join table over materialized build rows. key is
// the join-key column, width the row arity. Serial options (or a small
// build) produce a single flat partition; parallel options run a
// histogram, prefix sums, an order-preserving scatter and per-partition
// tables on the pool.
func Build(rows [][]storage.Word, key, width int, opt par.Options) *Table {
	n := len(rows)
	bits := pickBits(n, opt)
	if bits == 0 {
		t := &Table{shift: 64, parts: make([]part, 1)}
		p := &t.parts[0]
		p.build = make([]storage.Word, 0, n*width)
		p.table = make(map[storage.Word][]int32, n)
		for i, row := range rows {
			p.build = append(p.build, row...)
			p.table[row[key]] = append(p.table[row[key]], int32(i))
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
			c[(rows[i][key]*hashMul)>>shift]++
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
			row := rows[i]
			p := (row[key] * hashMul) >> shift
			copy(t.parts[p].build[int(cur[p])*width:], row)
			cur[p]++
		}
	})

	// Phase 3: per-partition tables, one partition per scheduler unit
	// (partitions are independent).
	par.Run(P, par.Options{Pool: opt.Pool, MorselRows: 1}, func(_, p, _, _ int) {
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
