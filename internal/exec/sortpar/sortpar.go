// Package sortpar parallelizes the sort pipeline breaker on the shared
// morsel scheduler: Sort is a parallel stable merge sort whose output is
// bit-identical to sort.SliceStable over the same input order (runs are
// contiguous slices sorted stably in parallel, then merged pairwise with
// ties always taken from the earlier run), and TopN is the bounded
// operator behind ORDER BY … LIMIT k — a per-worker k-element heap whose
// candidates merge into exactly the first k rows of the full stable sort,
// so top-N queries never materialize more than k rows per worker.
//
// Ties are resolved by original emission order throughout: TopN items
// carry a (morsel, seq) ordinal — the morsel index the row was emitted
// from and its sequence number within that morsel — which is the
// lexicographic encoding of the serial emission order under the
// scheduler's determinism contract (morsels numbered in row order). The
// differential tests assert bit-identity against the serial engines for
// every layout and worker count.
package sortpar

import (
	"sort"

	"repro/internal/exec/par"
	"repro/internal/plan"
	"repro/internal/storage"
)

// minParallelRows is the input size below which Sort stays serial: the
// pairwise merge scratch and scheduling overhead only pay off once runs
// outgrow the cache.
const minParallelRows = 4 << 10

// Less orders two rows by the sort keys (encoded words are
// order-preserving for every type); ties compare equal.
func Less(a, b []storage.Word, keys []plan.SortKey) bool {
	for _, k := range keys {
		x, y := a[k.Pos], b[k.Pos]
		if x == y {
			continue
		}
		if k.Desc {
			return x > y
		}
		return x < y
	}
	return false
}

// Sort orders rows in place by the sort keys, stably: equal-key rows keep
// their input order. With a single worker — or a small input — it is
// sort.SliceStable (exec.SortRows, the baseline engines' sort, is this
// case); otherwise contiguous runs are sorted stably on the
// scheduler's workers and merged pairwise, ties taken from the
// lower-index (earlier) run.
func Sort(rows [][]storage.Word, keys []plan.SortKey, opt par.Options) {
	n := len(rows)
	if !opt.Parallel() || n < minParallelRows {
		sortRun(rows, keys)
		return
	}
	runs := opt.WorkerCount()
	if runs > n {
		runs = n
	}
	// Run boundaries: runs contiguous near-equal slices of the input.
	bounds := make([]int, runs+1)
	for i := range bounds {
		bounds[i] = i * n / runs
	}
	runOpt := par.Options{Pool: opt.Pool, MorselRows: 1}
	par.Run(runs, runOpt, func(_, r, _, _ int) {
		sortRun(rows[bounds[r]:bounds[r+1]], keys)
	})

	// Pairwise merge rounds, parallel within each round. src and dst
	// ping-pong; ties take the left (earlier) run, so the merge is stable.
	src, dst := rows, make([][]storage.Word, n)
	for len(bounds) > 2 {
		pairs := (len(bounds) - 1) / 2
		newBounds := make([]int, 0, pairs+2)
		newBounds = append(newBounds, 0)
		for p := 0; p < pairs; p++ {
			newBounds = append(newBounds, bounds[2*p+2])
		}
		if (len(bounds)-1)%2 == 1 { // odd run out: carried to the next round
			newBounds = append(newBounds, bounds[len(bounds)-1])
		}
		b := bounds
		s, d := src, dst
		par.Run(pairs, runOpt, func(_, p, _, _ int) {
			mergeRuns(d, s, b[2*p], b[2*p+1], b[2*p+2], keys)
		})
		if (len(bounds)-1)%2 == 1 {
			copy(dst[bounds[len(bounds)-2]:], src[bounds[len(bounds)-2]:])
		}
		src, dst = dst, src
		bounds = newBounds
	}
	if &src[0] != &rows[0] {
		copy(rows, src)
	}
}

// sortRun stable-sorts one contiguous run.
func sortRun(rows [][]storage.Word, keys []plan.SortKey) {
	sort.SliceStable(rows, func(i, j int) bool { return Less(rows[i], rows[j], keys) })
}

// mergeRuns merges src[lo:mid] and src[mid:hi] into dst[lo:hi], taking the
// left element on ties (stability).
func mergeRuns(dst, src [][]storage.Word, lo, mid, hi int, keys []plan.SortKey) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		switch {
		case i >= mid:
			dst[k] = src[j]
			j++
		case j >= hi:
			dst[k] = src[i]
			i++
		case Less(src[j], src[i], keys): // strictly less: ties keep the left
			dst[k] = src[j]
			j++
		default:
			dst[k] = src[i]
			i++
		}
	}
}

// item is one retained top-N candidate: the row copy plus its emission
// ordinal, the stability tie-break.
type item struct {
	row    []storage.Word
	morsel int
	seq    int
}

// TopN is a bounded top-N accumulator: it retains the k least rows (under
// the sort keys, ties by emission ordinal) of everything offered to it,
// in O(k) memory. A TopN is not goroutine-safe; parallel executions keep
// one per worker and combine them with MergeTopN.
type TopN struct {
	k     int
	keys  []plan.SortKey
	items []item // max-heap: root is the worst retained candidate
}

// NewTopN creates an accumulator retaining at most k rows.
func NewTopN(keys []plan.SortKey, k int) *TopN {
	if k < 0 {
		k = 0
	}
	return &TopN{k: k, keys: keys, items: make([]item, 0, min(k, 1024))}
}

// less is the total strict order of candidates: sort keys first, emission
// ordinal as the tie-break — exactly the order of a stable sort over the
// serial emission sequence.
func (t *TopN) less(a, b *item) bool {
	if Less(a.row, b.row, t.keys) {
		return true
	}
	if Less(b.row, a.row, t.keys) {
		return false
	}
	if a.morsel != b.morsel {
		return a.morsel < b.morsel
	}
	return a.seq < b.seq
}

// Offer considers one emitted row. The row is copied only if it enters the
// retained set; evicted candidates donate their buffer to the newcomer, so
// a full scan costs O(k) row allocations regardless of input size.
func (t *TopN) Offer(row []storage.Word, morsel, seq int) {
	if t.k == 0 {
		return
	}
	if len(t.items) < t.k {
		t.items = append(t.items, item{row: append([]storage.Word(nil), row...), morsel: morsel, seq: seq})
		t.siftUp(len(t.items) - 1)
		return
	}
	cand := item{row: row, morsel: morsel, seq: seq}
	root := &t.items[0]
	if !t.less(&cand, root) {
		return
	}
	if len(root.row) == len(row) {
		copy(root.row, row)
	} else {
		root.row = append([]storage.Word(nil), row...)
	}
	root.morsel, root.seq = morsel, seq
	t.siftDown(0)
}

func (t *TopN) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(&t.items[p], &t.items[i]) { // parent already the worse one
			return
		}
		t.items[p], t.items[i] = t.items[i], t.items[p]
		i = p
	}
}

func (t *TopN) siftDown(i int) {
	n := len(t.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.less(&t.items[worst], &t.items[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.less(&t.items[worst], &t.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}

// MergeTopN combines per-worker accumulators into the final result: the
// first k rows of the stable sort of the full input, in sorted order. The
// union of per-worker candidate sets is a superset of the global top k
// (every globally retained row is among the k best its worker saw), so
// sorting the union by (keys, ordinal) and truncating is exact.
func MergeTopN(parts []*TopN, keys []plan.SortKey, k int) [][]storage.Word {
	var all []item
	for _, p := range parts {
		if p == nil {
			continue
		}
		all = append(all, p.items...)
	}
	if len(all) == 0 || k <= 0 {
		return nil
	}
	cmp := TopN{keys: keys}
	sort.Slice(all, func(i, j int) bool { return cmp.less(&all[i], &all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	out := make([][]storage.Word, len(all))
	for i := range all {
		out[i] = all[i].row
	}
	return out
}
