package obs

import (
	"sync/atomic"
	"time"
)

// Event is one structured system event: a role transition, an epoch
// rotation, a checkpoint boundary, a resync, an overload shed — the
// cluster-lifecycle moments an operator reconstructs an incident from.
// Seq is assigned by the journal and totally orders events within one
// process; Term and Epoch snapshot the node's replication term and MVCC
// epoch at emission time.
type Event struct {
	Seq   uint64            `json:"seq"`
	Time  time.Time         `json:"time"`
	Kind  string            `json:"kind"`
	Term  uint64            `json:"term,omitempty"`
	Epoch uint64            `json:"epoch,omitempty"`
	Msg   string            `json:"msg,omitempty"`
	Data  map[string]string `json:"data,omitempty"`
}

// Journal is a bounded ring of events with a lock-free Append: each
// append claims the next sequence number with one atomic add and
// publishes the event with one atomic pointer store, overwriting the
// slot it wraps onto. Readers (Since) never block appenders; an event
// overwritten mid-read is reported as evicted, never delivered torn.
type Journal struct {
	slots []atomic.Pointer[Event]
	next  atomic.Uint64 // last assigned seq (0 = empty; seqs start at 1)
}

// DefaultJournalSize is the ring capacity NewJournal(0) uses — roughly
// an hour of busy-cluster lifecycle events.
const DefaultJournalSize = 1024

// NewJournal builds a journal retaining the last n events (n <= 0 means
// DefaultJournalSize).
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = DefaultJournalSize
	}
	return &Journal{slots: make([]atomic.Pointer[Event], n)}
}

// Append records one event, stamping its sequence number (and its time,
// when unset), and returns the assigned seq. Safe for concurrent use;
// no locks taken.
func (j *Journal) Append(e Event) uint64 {
	seq := j.next.Add(1)
	e.Seq = seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.slots[(seq-1)%uint64(len(j.slots))].Store(&e)
	return seq
}

// Since returns the retained events with Seq > cursor, oldest first, at
// most limit of them (limit <= 0 means the full ring). next is the
// cursor that resumes the read (the Seq of the last event the scan got
// past); evicted counts events in the requested range that the ring had
// already overwritten — a nonzero value tells the consumer it fell
// behind and lost history. The scan stops early at a slot whose append
// has claimed its seq but not yet published (a torn in-flight write),
// so delivered events are always gap-free except for eviction.
func (j *Journal) Since(cursor uint64, limit int) (events []Event, next uint64, evicted uint64) {
	head := j.next.Load()
	n := uint64(len(j.slots))
	if limit <= 0 || uint64(limit) > n {
		limit = len(j.slots)
	}
	next = cursor
	lo := cursor + 1
	oldest := uint64(1)
	if head > n {
		oldest = head - n + 1
	}
	if lo < oldest {
		evicted += oldest - lo
		lo = oldest
		next = oldest - 1
	}
	for seq := lo; seq <= head && len(events) < limit; seq++ {
		p := j.slots[(seq-1)%n].Load()
		switch {
		case p == nil || p.Seq < seq:
			// The appender claimed seq but has not stored the event yet:
			// everything from here on is still in flight — stop cleanly.
			return events, next, evicted
		case p.Seq > seq:
			// Overwritten while we scanned: the ring wrapped past this
			// reader mid-iteration.
			evicted++
			next = seq
		default:
			events = append(events, *p)
			next = seq
		}
	}
	return events, next, evicted
}
