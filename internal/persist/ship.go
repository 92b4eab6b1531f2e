package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Log shipping: the replication-facing side of the WAL. A replica
// bootstraps from the checkpoint snapshot and then tails the committed
// prefix of the primary's WAL with TailRead, shipping the raw CRC-framed
// bytes so a torn or corrupted stream is detected exactly like a torn
// local tail. A checkpoint rotates the epoch and discards the log, which
// TailRead reports as ErrEpochGone — the follower's cue to re-fetch the
// snapshot.

// ErrEpochGone reports a tail request for a WAL epoch that a checkpoint
// has rotated away (or an offset past the committed prefix, which means
// the follower's log view no longer matches the primary's). The follower
// must re-bootstrap from the current snapshot.
var ErrEpochGone = errors.New("persist: WAL epoch rotated away, resync from snapshot")

// Tail is one read of the committed WAL prefix.
type Tail struct {
	// Data holds whole CRC-framed records starting at the requested
	// offset (never a partial frame; empty when the follower is caught
	// up).
	Data []byte
	// Committed is the current committed WAL length — the offset a fully
	// caught-up follower would hold.
	Committed int64
	// Records counts the mutation records in the committed prefix (the
	// leading epoch record is excluded), for record-level lag accounting.
	Records int64
	// Epoch is the primary's current checkpoint epoch.
	Epoch uint64
	// CommitSeq, CommitNanos and QueryID describe the newest stamped
	// commit fully contained in Data (or, when Data is empty, in the
	// offset the caller already holds): its monotonic sequence number,
	// wall-clock unix-nanosecond commit time and the correlation id of
	// the triggering write. Zero/empty when no stamp covers the position
	// — after a rotation or restart, or for a follower lagging past the
	// stamp ring — in which case the follower must not derive lag.
	CommitSeq   int64
	CommitNanos int64
	QueryID     string
}

// TailRead returns committed WAL bytes from the given offset, at most max
// bytes (default 1 MB) but always ending on a frame boundary; a single
// record larger than max is returned whole, which is safe because commits
// only ever land complete frames. It returns ErrEpochGone when epoch no
// longer matches the live log.
func (m *Manager) TailRead(epoch uint64, offset int64, max int) (Tail, error) {
	if max <= 0 {
		max = 1 << 20
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := Tail{Committed: m.committed, Records: m.records, Epoch: m.epoch}
	if epoch != m.epoch || offset < 0 || offset > m.committed {
		return t, ErrEpochGone
	}
	avail := m.committed - offset
	if avail == 0 {
		m.stampTail(&t, offset)
		return t, nil
	}
	n := avail
	if n > int64(max) {
		n = int64(max)
	}
	buf := make([]byte, n)
	if _, err := m.reader.ReadAt(buf, offset); err != nil {
		return t, fmt.Errorf("persist: reading WAL tail at offset %d: %w", offset, err)
	}
	end := frameAlign(buf)
	if end == 0 {
		// The first frame is longer than max. The committed prefix ends
		// on a frame boundary, so the whole frame is readable — ship it
		// as one oversized chunk rather than starving the follower.
		total := int64(8 + binary.LittleEndian.Uint32(buf[:4]))
		if total > avail {
			return t, fmt.Errorf("%w: frame at offset %d overruns committed prefix", ErrWALCorrupt, offset)
		}
		buf = make([]byte, total)
		if _, err := m.reader.ReadAt(buf, offset); err != nil {
			return t, fmt.Errorf("persist: reading WAL tail at offset %d: %w", offset, err)
		}
		end = int(total)
	}
	t.Data = buf[:end]
	m.stampTail(&t, offset+int64(end))
	return t, nil
}

// stampTail resolves the newest commit stamp covered by a tail ending at
// end into the Tail's tracing fields. Caller holds m.mu.
func (m *Manager) stampTail(t *Tail, end int64) {
	if st, ok := m.stampAtOrBeforeLocked(end); ok {
		t.CommitSeq, t.CommitNanos, t.QueryID = st.seq, st.nanos, st.qid
	}
}

// Changed returns a channel that is closed at the next commit or epoch
// rotation — the long-poll parking primitive for WAL tails. Grab the
// channel before the TailRead whose emptiness you are waiting out, or a
// commit between the two is missed.
func (m *Manager) Changed() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.notify == nil {
		m.notify = make(chan struct{})
	}
	return m.notify
}

// frameAlign returns the length of the longest prefix of buf holding only
// whole frames (length checks only — CRC validation happens at apply
// time, and the local log was CRC-verified on open).
func frameAlign(buf []byte) int {
	end := 0
	for {
		if len(buf)-end < 8 {
			return end
		}
		blen := int(binary.LittleEndian.Uint32(buf[end : end+4]))
		if len(buf)-end-8 < blen {
			return end
		}
		end += 8 + blen
	}
}

// ParseFrame splits the first complete CRC-framed record off data,
// returning its body and the frame's total length. n == 0 with a nil
// error means data holds no complete frame yet (a torn stream tail —
// request more bytes); a CRC mismatch returns ErrWALCorrupt.
func ParseFrame(data []byte) (body []byte, n int, err error) {
	if len(data) < 8 {
		return nil, 0, nil
	}
	blen := int(binary.LittleEndian.Uint32(data[:4]))
	if len(data)-8 < blen {
		return nil, 0, nil
	}
	body = data[8 : 8+blen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, fmt.Errorf("%w: frame CRC mismatch", ErrWALCorrupt)
	}
	return body, 8 + blen, nil
}

// EpochRecord reports whether a record body is a WAL epoch marker, and
// its epoch. Followers verify the marker against the snapshot they
// restored instead of applying it.
func EpochRecord(body []byte) (uint64, bool) {
	if len(body) == 0 || body[0] != walEpoch {
		return 0, false
	}
	d := &dec{buf: body[1:]}
	e, err := d.uvarint()
	if err != nil {
		return 0, false
	}
	return e, true
}
