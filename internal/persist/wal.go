package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/storage"
)

// The WAL is an append-only log of the mutations that happened after the
// last checkpoint. Record framing:
//
//	length uint32  length of the body
//	crc    uint32  IEEE CRC-32 of the body
//	body   = type byte + payload
//
// Replay applies records in order until the file ends. A final record
// that is truncated or fails its CRC is a torn tail — the write that was
// in flight when the process died — and is discarded (the file is
// truncated back to the last good record), which is the standard WAL
// contract: a mutation is durable once its record is fully on disk.
//
// Record types:
//
//	walInsert       table, width, row words — appended tuples
//	walCreateTable  a full table payload (encodeTable) — DDL from /load
//	walRelayout     table, layout groups — an optimizer decision
//	walDictAppend   table, attr, new string values — dictionary growth
//	                from a bulk load; logged before the insert whose rows
//	                use the new codes, so replay assigns identical codes
//	walEpoch        checkpoint epoch — always the first record of a WAL;
//	                recovery replays the log only when it matches the
//	                snapshot's epoch (see the snapshot format comment)
const (
	walInsert      byte = 1
	walCreateTable byte = 2
	walRelayout    byte = 3
	// 4 is retired (it logged index creation). Leaving it unassigned keeps
	// the later types' bytes, so existing logs still decode; a type-4
	// record fails replay as unknown.
	walDictAppend byte = 5
	walEpoch      byte = 6
)

// ErrWALCorrupt reports a WAL record that is corrupt in the middle of the
// file — valid records follow it, so this is damage, not a torn tail.
var ErrWALCorrupt = errors.New("persist: corrupt WAL record")

// wal is the append side of the log. Appends go through a buffered
// writer; commit flushes the buffer (and fsyncs when configured), which
// is the group-commit boundary: a batch of records — a bulk-load batch, a
// multi-row insert — costs one flush and at most one fsync.
type wal struct {
	f     *os.File
	bw    *bufio.Writer
	size  int64
	fsync bool
	// stamped reports whether the leading epoch record is on disk. It is
	// written lazily, together with the first mutation record of a new or
	// rotated-in log, so a failed stamp can never leave mutation records
	// in a headerless (unrecoverable) log.
	stamped bool
}

func openWAL(path string, fsync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	// A non-empty WAL necessarily starts with its epoch record (replay
	// validated that before we got here); an empty one is stamped with
	// the first commit.
	return &wal{f: f, bw: bufio.NewWriterSize(f, 1<<20), size: st.Size(), fsync: fsync, stamped: st.Size() > 0}, nil
}

// append buffers one framed record; it becomes durable at the next
// commit.
func (w *wal) append(body []byte) error {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	if _, err := w.bw.Write(frame[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		return err
	}
	w.size += int64(len(frame) + len(body))
	return nil
}

// commit flushes buffered records to the file, fsyncing when the WAL was
// opened in fsync mode.
func (w *wal) commit() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.fsync {
		if err := faultinject.Hit("persist/wal-fsync"); err != nil {
			return err
		}
		return w.f.Sync()
	}
	return nil
}

func (w *wal) close() error {
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFrame appends one CRC-framed record to buf — the same framing
// wal.append writes, for staging a successor WAL outside the live file.
func appendFrame(buf, body []byte) []byte {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return append(append(buf, frame[:]...), body...)
}

// firstEpoch reads the leading epoch record of a WAL file. ok is false
// when the file is missing, empty, torn, or does not start with a valid
// epoch record — states where the log carries no identifiable epoch.
func firstEpoch(path string) (epoch uint64, ok bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, false, nil
	}
	blen := binary.LittleEndian.Uint32(hdr[:4])
	if blen > 64 {
		return 0, false, nil // epoch records are a dozen bytes at most
	}
	body := make([]byte, blen)
	if _, err := io.ReadFull(f, body); err != nil {
		return 0, false, nil
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, false, nil
	}
	e, isEpoch := EpochRecord(body)
	return e, isEpoch, nil
}

// Record body builders.

func walInsertBody(table string, width int, words []storage.Word) []byte {
	e := &enc{buf: make([]byte, 1, 1+3*binary.MaxVarintLen64+len(table)+8*len(words))}
	e.buf[0] = walInsert
	e.str(table)
	e.uvarint(uint64(width))
	e.uvarint(uint64(len(words) / width))
	for _, w := range words {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, w)
	}
	return e.buf
}

func walCreateTableBody(t *TableSnap) []byte {
	return append([]byte{walCreateTable}, encodeTable(t)...)
}

func walRelayoutBody(table string, l storage.Layout) []byte {
	e := &enc{buf: []byte{walRelayout}}
	e.str(table)
	e.uvarint(uint64(len(l.Groups)))
	for _, g := range l.Groups {
		e.uvarint(uint64(len(g)))
		for _, a := range g {
			e.uvarint(uint64(a))
		}
	}
	return e.buf
}

func walDictAppendBody(table string, attr int, values []string) []byte {
	e := &enc{buf: []byte{walDictAppend}}
	e.str(table)
	e.uvarint(uint64(attr))
	e.uvarint(uint64(len(values)))
	for _, v := range values {
		e.str(v)
	}
	return e.buf
}

func walEpochBody(epoch uint64) []byte {
	e := &enc{buf: []byte{walEpoch}}
	e.uvarint(epoch)
	return e.buf
}

// replayWAL applies the log at path to tx, given the epoch of the
// snapshot the transaction was restored from. It returns the number of
// records applied.
//
//   - A WAL whose leading epoch record matches snapEpoch is replayed; a
//     torn tail (partial final record) is truncated away.
//   - A WAL with a LOWER epoch is a leftover from a checkpoint that
//     crashed between the snapshot rename and the WAL rotation: its records
//     are already inside the snapshot, so it is discarded wholesale
//     instead of replayed as duplicates.
//   - A HIGHER epoch (or corruption followed by further valid data)
//     returns ErrWALCorrupt — the log cannot be trusted.
func replayWAL(path string, tx *core.WriteTxn, snapEpoch uint64) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	applied := 0
	off := 0
	goodEnd := 0
	first := true
	for off < len(data) {
		if len(data)-off < 8 {
			break // torn frame header
		}
		blen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if len(data)-off-8 < blen {
			break // torn body
		}
		body := data[off+8 : off+8+blen]
		if crc32.ChecksumIEEE(body) != crc {
			// A CRC failure on the last record is a torn write; earlier it
			// means the file is damaged.
			if off+8+blen < len(data) {
				return applied, fmt.Errorf("%w: record at offset %d", ErrWALCorrupt, off)
			}
			break
		}
		if first {
			first = false
			epoch, err := decodeEpochRecord(body)
			if err != nil {
				return 0, err
			}
			switch {
			case epoch == snapEpoch:
				// This WAL continues the restored snapshot: replay it.
			case epoch < snapEpoch:
				// Stale pre-checkpoint log; its effects are in the
				// snapshot already. Discard it.
				if err := os.Truncate(path, 0); err != nil {
					return 0, fmt.Errorf("persist: discarding stale WAL: %w", err)
				}
				return 0, nil
			default:
				return 0, fmt.Errorf("%w: WAL epoch %d newer than snapshot epoch %d",
					ErrWALCorrupt, epoch, snapEpoch)
			}
		} else if err := ApplyRecordTo(tx, body); err != nil {
			return applied, fmt.Errorf("persist: WAL record at offset %d: %w", off, err)
		} else {
			applied++
		}
		off += 8 + blen
		goodEnd = off
	}
	if goodEnd < len(data) {
		if err := os.Truncate(path, int64(goodEnd)); err != nil {
			return applied, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	return applied, nil
}

// decodeEpochRecord decodes the mandatory leading epoch record.
func decodeEpochRecord(body []byte) (uint64, error) {
	if len(body) == 0 || body[0] != walEpoch {
		return 0, fmt.Errorf("%w: WAL does not start with an epoch record", ErrWALCorrupt)
	}
	d := &dec{buf: body[1:]}
	return d.uvarint()
}

// ApplyRecordTo replays one decoded record body into a write
// transaction. Local recovery and replication followers share it, so a
// replica applying shipped records reconstructs the primary's physical
// design — layouts, dictionary codes, index definitions — bit-identically,
// and neither publishes a half-applied log.
func ApplyRecordTo(dst *core.WriteTxn, body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("%w: empty body", ErrWALCorrupt)
	}
	typ, payload := body[0], body[1:]
	switch typ {
	case walInsert:
		d := &dec{buf: payload}
		table, err := d.str()
		if err != nil {
			return err
		}
		width, err := d.count("insert width")
		if err != nil {
			return err
		}
		n, err := d.count("insert row")
		if err != nil {
			return err
		}
		if len(d.buf)-d.off != 8*width*n {
			return fmt.Errorf("%w: insert holds %d bytes, want %d", ErrWALCorrupt, len(d.buf)-d.off, 8*width*n)
		}
		if !dst.Catalog().Has(table) {
			return fmt.Errorf("%w: insert into unknown table %q", ErrWALCorrupt, table)
		}
		if w := dst.Catalog().Table(table).Schema.Width(); w != width {
			return fmt.Errorf("%w: insert width %d into width-%d table %q", ErrWALCorrupt, width, w, table)
		}
		words := make([]storage.Word, width*n)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(d.buf[d.off:])
			d.off += 8
		}
		dst.AppendRows(table, words)
		return nil
	case walCreateTable:
		t, err := decodeTable(payload)
		if err != nil {
			return err
		}
		return t.restore(dst)
	case walRelayout:
		d := &dec{buf: payload}
		table, err := d.str()
		if err != nil {
			return err
		}
		groups, err := d.count("layout group")
		if err != nil {
			return err
		}
		l := storage.Layout{Groups: make([][]int, groups)}
		for gi := range l.Groups {
			glen, err := d.count("group attribute")
			if err != nil {
				return err
			}
			g := make([]int, glen)
			for i := range g {
				a, err := d.uvarint()
				if err != nil {
					return err
				}
				g[i] = int(a)
			}
			l.Groups[gi] = g
		}
		if !dst.Catalog().Has(table) {
			return fmt.Errorf("%w: relayout of unknown table %q", ErrWALCorrupt, table)
		}
		if err := l.Validate(dst.Catalog().Table(table).Schema.Width()); err != nil {
			return fmt.Errorf("%w: %v", ErrWALCorrupt, err)
		}
		dst.ApplyLayout(table, l)
		return nil
	case walDictAppend:
		d := &dec{buf: payload}
		table, err := d.str()
		if err != nil {
			return err
		}
		attr, err := d.count("dict attribute")
		if err != nil {
			return err
		}
		n, err := d.count("dict value")
		if err != nil {
			return err
		}
		if !dst.Catalog().Has(table) {
			return fmt.Errorf("%w: dict append to unknown table %q", ErrWALCorrupt, table)
		}
		rel := dst.Catalog().Table(table)
		if attr >= rel.Schema.Width() || rel.Schema.Attrs[attr].Type != storage.String {
			return fmt.Errorf("%w: dict append to non-string attribute %d of %q", ErrWALCorrupt, attr, table)
		}
		values := make([]string, n)
		for i := range values {
			if values[i], err = d.str(); err != nil {
				return err
			}
		}
		dst.DictAppend(table, attr, values)
		return nil
	case walEpoch:
		return fmt.Errorf("%w: epoch record in the middle of the log", ErrWALCorrupt)
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrWALCorrupt, typ)
	}
}
