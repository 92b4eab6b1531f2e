package result

import (
	"math/bits"
	"sync"

	"repro/internal/storage"
)

// Recycled row memory. A large result's word chunks and its row views
// come from size-classed free lists and go back to them when the set is
// released, so a steady stream of large replies neither allocates nor
// zeroes its rows. The lists are sync.Pools, which the collector empties
// within two cycles, so memory a burst of replies took does not stay.
//
// Only buffers of at least minRecycled elements are recycled: a point
// lookup's row is made as before and costs no more than it did. Release
// is called only by the service, once a reply is written; a set nobody
// releases, a test's or core.DB.Query's, leaves its memory to the
// collector as any other.

// Class k of a free list holds buffers of minRecycled<<k up to
// minRecycled<<(k+1) elements; a buffer beyond the last class is dropped.
const (
	minRecycled     = 1024
	recycledClasses = 12
)

// A freeList holds recycled buffers by class, each as a pointer to its
// slice, so keeping and returning one allocates nothing.
type freeList [recycledClasses]sync.Pool

var wordChunks, rowViews freeList

// class returns the class of a buffer of n >= minRecycled elements.
func class(n int) int { return bits.Len(uint(n/minRecycled)) - 1 }

// get returns a buffer of at least n elements, n >= minRecycled, whose
// contents are whatever its last user left: from n's class if one there
// is long enough, else from the class above, whose buffers all are, else
// made at exactly n, so a set nobody releases costs what make did.
func get[T any](f *freeList, n int) *[]T {
	for k := class(n); k < min(class(n)+2, recycledClasses); k++ {
		if p, ok := f[k].Get().(*[]T); ok {
			if len(*p) >= n {
				return p
			}
			f[k].Put(p)
		}
	}
	b := make([]T, n)
	return &b
}

// put hands buffer p, which get returned, back to f.
func put[T any](f *freeList, p *[]T) {
	if k := class(len(*p)); k < recycledClasses {
		f[k].Put(p)
	}
}

// Chunk returns an empty chunk with room for at least n words, for rows
// of s. A chunk of minRecycled words or more comes from the free list,
// its memory not zeroed, and s keeps it until Release; a smaller one, or
// any chunk of a nil set, is made. Safe for concurrent use.
func (s *Set) Chunk(n int) []storage.Word {
	if s == nil || n < minRecycled {
		return make([]storage.Word, 0, n)
	}
	p := get[storage.Word](&wordChunks, n)
	k := s.keep()
	k.mu.Lock()
	k.chunks = append(k.chunks, p)
	k.mu.Unlock()
	return (*p)[:0]
}

// RowViews returns a slice of n row views for s.Rows, to be filled by
// the caller before it is read. Like Chunk, n of minRecycled or more
// comes from the free list and is kept by s until Release. A set keeps
// one: not safe for concurrent use, and a second call's slice replaces
// the first, which goes to the collector.
func (s *Set) RowViews(n int) [][]storage.Word {
	if s == nil || n < minRecycled {
		return make([][]storage.Word, n)
	}
	k := s.keep()
	k.views = get[[]storage.Word](&rowViews, n)
	return (*k.views)[:n]
}

// Release hands the memory s keeps back to the free lists and empties
// s.Rows. Nothing cut from s's rows may be read afterwards: the next
// large result writes over it.
func (s *Set) Release() {
	if k := s.kept.Swap(nil); k != nil {
		for _, p := range k.chunks {
			poison(*p)
			put(&wordChunks, p)
		}
		if k.views != nil {
			put(&rowViews, k.views)
		}
	}
	s.Rows = nil
}

// kept is the recycled memory a set holds, allocated with its first
// buffer so that a set without any stays small.
type kept struct {
	mu     sync.Mutex // guards chunks, which workers add to at once
	chunks []*[]storage.Word
	views  *[][]storage.Word // Rows's backing array
}

func (s *Set) keep() *kept {
	if k := s.kept.Load(); k != nil {
		return k
	}
	s.kept.CompareAndSwap(nil, new(kept))
	return s.kept.Load()
}
