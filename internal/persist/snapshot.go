package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Snapshot file format (all integers little-endian unless uvarint):
//
//	magic    [8]byte  "PDSMSNP1"
//	version  uint32   currently 1
//	epoch    uint64   checkpoint epoch (pairs the snapshot with its WAL)
//	tables   uint32   number of table sections
//	tables × section:
//	  payloadLen uint64
//	  crc        uint32  IEEE CRC-32 of the payload bytes
//	  payload    — one encoded table (see encodeTable)
//
// Each table payload is independently checksummed, so corruption is
// detected per section and named in the error. The format is
// layout-aware: partition word data is stored exactly as it sits in
// memory (row-major per group, stride = group width), so a restored
// relation has bit-identical Parts, strides, offsets and dictionary
// codes — the optimizer's physical design survives the round trip.
//
// The epoch makes checkpointing crash-safe end to end: every WAL starts
// with an epoch record, and recovery only replays a WAL whose epoch
// matches the snapshot's. A crash between the snapshot rename and the
// WAL rotation leaves a stale lower-epoch WAL whose records are already in
// the snapshot — recovery discards it instead of replaying duplicates.

var (
	// ErrBadMagic reports that the file does not start with the snapshot
	// magic — it is not a snapshot at all.
	ErrBadMagic = errors.New("persist: bad snapshot magic")
	// ErrBadVersion reports a snapshot written by an unknown format
	// version.
	ErrBadVersion = errors.New("persist: unsupported snapshot version")
	// ErrChecksum reports a table section whose payload does not match its
	// stored CRC.
	ErrChecksum = errors.New("persist: snapshot checksum mismatch")
	// ErrTruncated reports a snapshot that ends mid-structure.
	ErrTruncated = errors.New("persist: snapshot truncated")
	// ErrCorrupt reports a structurally invalid snapshot payload (counts
	// out of range, malformed layout, unknown type codes, ...).
	ErrCorrupt = errors.New("persist: corrupt snapshot")
)

var snapMagic = [8]byte{'P', 'D', 'S', 'M', 'S', 'N', 'P', '1'}

const snapVersion = 1

// maxSaneCount bounds decoded element counts before allocation so a
// corrupt (or fuzzed) length field cannot demand gigabytes. Word data is
// bounded separately by the section length.
const maxSaneCount = 1 << 24

// TableSnap is the serializable state of one table: everything needed to
// reconstruct the relation bit-identically plus the definitions of its
// indexes (index structures are rebuilt from data on restore).
type TableSnap struct {
	Schema  *storage.Schema
	Layout  storage.Layout
	Rows    int
	Parts   [][]storage.Word // one word slice per layout group, memory order
	Dicts   []*storage.Dict  // per attribute; nil for non-string attributes
	Indexes []plan.IndexDef
}

// SnapTable captures the serializable state of one catalog table.
func SnapTable(c *plan.Catalog, name string) *TableSnap {
	rel := c.Table(name)
	parts := make([][]storage.Word, len(rel.Parts))
	for i, p := range rel.Parts {
		parts[i] = p.Data
	}
	return &TableSnap{
		Schema:  rel.Schema,
		Layout:  rel.Layout,
		Rows:    rel.Rows(),
		Parts:   parts,
		Dicts:   rel.Dicts,
		Indexes: c.IndexDefs(name),
	}
}

// restore materializes the table into a relation and registers it and
// its indexes in tx.
func (t *TableSnap) restore(tx *core.WriteTxn) error {
	rel, err := storage.RestoreRelation(t.Schema, t.Layout, t.Parts, t.Dicts, t.Rows)
	if err != nil {
		return err
	}
	tx.AddTable(rel)
	for _, def := range t.Indexes {
		if err := tx.CreateIndex(t.Schema.Name, def.Attr, def.Kind); err != nil {
			return fmt.Errorf("%w: %v on %s", ErrCorrupt, err, t.Schema.Name)
		}
	}
	return nil
}

// WriteCatalogSnapshot serializes every table of a catalog to w — the
// checkpoint path hands it a pinned MVCC snapshot's catalog, so the
// entire serialization runs without any lock while writers keep
// publishing new versions.
func WriteCatalogSnapshot(w io.Writer, c *plan.Catalog, epoch uint64) (int64, error) {
	names := c.Names()
	var hdr [24]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], snapVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], epoch)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(names)))
	written := int64(0)
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, name := range names {
		payload := encodeTable(SnapTable(c, name))
		var sec [12]byte
		binary.LittleEndian.PutUint64(sec[:8], uint64(len(payload)))
		binary.LittleEndian.PutUint32(sec[8:12], crc32.ChecksumIEEE(payload))
		if n, err = w.Write(sec[:]); err != nil {
			return written + int64(n), err
		}
		written += int64(n)
		if n, err = w.Write(payload); err != nil {
			return written + int64(n), err
		}
		written += int64(n)
	}
	return written, nil
}

// Snapshot is a decoded snapshot file: the checkpoint epoch and every
// table section.
type Snapshot struct {
	Epoch  uint64
	Tables []*TableSnap
}

// RestoreTo materializes every table of the snapshot, and its indexes,
// in tx — the one restore loop, which local recovery continues with the
// WAL before it commits.
func (s *Snapshot) RestoreTo(tx *core.WriteTxn) error {
	for _, t := range s.Tables {
		if err := t.restore(tx); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot decodes a snapshot and restores every table (and its
// indexes) into a fresh core.DB, published as one version; it returns the
// database and the snapshot's checkpoint epoch. Decode failures return
// errors wrapping the named sentinel errors above; the function never
// panics on corrupt input.
func ReadSnapshot(r io.Reader) (*core.DB, uint64, error) {
	snap, err := DecodeSnapshot(r)
	if err != nil {
		return nil, 0, err
	}
	db := core.Open()
	tx := db.BeginWrite()
	if err := snap.RestoreTo(tx); err != nil {
		return nil, 0, err
	}
	tx.Commit()
	return db, snap.Epoch, nil
}

// DecodeSnapshot decodes a snapshot file without touching a database.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrBadVersion, v, snapVersion)
	}
	epoch := binary.LittleEndian.Uint64(hdr[12:20])
	count := binary.LittleEndian.Uint32(hdr[20:24])
	if count > maxSaneCount {
		return nil, fmt.Errorf("%w: implausible table count %d", ErrCorrupt, count)
	}
	tables := make([]*TableSnap, 0, count)
	for i := 0; i < int(count); i++ {
		var sec [12]byte
		if _, err := io.ReadFull(r, sec[:]); err != nil {
			return nil, fmt.Errorf("%w: table %d section header: %v", ErrTruncated, i, err)
		}
		plen := binary.LittleEndian.Uint64(sec[:8])
		if plen > 1<<40 {
			return nil, fmt.Errorf("%w: table %d: implausible section length %d", ErrCorrupt, i, plen)
		}
		// Copy incrementally rather than trusting plen with an up-front
		// allocation: a corrupt length field then costs memory
		// proportional to the actual input, not the claimed size.
		var pbuf bytes.Buffer
		if n, err := io.CopyN(&pbuf, r, int64(plen)); err != nil {
			return nil, fmt.Errorf("%w: table %d payload: %d of %d bytes: %v", ErrTruncated, i, n, plen, err)
		}
		payload := pbuf.Bytes()
		if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(sec[8:12]) {
			return nil, fmt.Errorf("%w: table %d", ErrChecksum, i)
		}
		t, err := decodeTable(payload)
		if err != nil {
			return nil, fmt.Errorf("table %d: %w", i, err)
		}
		tables = append(tables, t)
	}
	return &Snapshot{Epoch: epoch, Tables: tables}, nil
}

// enc accumulates the binary encoding of one table payload.
type enc struct{ buf []byte }

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) byte(b byte) { e.buf = append(e.buf, b) }

func (e *enc) words(ws []storage.Word) {
	e.uvarint(uint64(len(ws)))
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, 8*len(ws))...)
	for _, w := range ws {
		binary.LittleEndian.PutUint64(e.buf[off:], w)
		off += 8
	}
}

// encodeTable renders one table payload; decodeTable is its inverse.
func encodeTable(t *TableSnap) []byte {
	e := &enc{}
	e.str(t.Schema.Name)
	e.uvarint(uint64(t.Schema.Width()))
	for _, a := range t.Schema.Attrs {
		e.str(a.Name)
		e.byte(byte(a.Type))
	}
	e.uvarint(uint64(len(t.Layout.Groups)))
	for _, g := range t.Layout.Groups {
		e.uvarint(uint64(len(g)))
		for _, a := range g {
			e.uvarint(uint64(a))
		}
	}
	e.uvarint(uint64(t.Rows))
	for _, part := range t.Parts {
		e.words(part)
	}
	for attr := 0; attr < t.Schema.Width(); attr++ {
		var d *storage.Dict
		if attr < len(t.Dicts) {
			d = t.Dicts[attr]
		}
		if d == nil {
			e.byte(0)
			continue
		}
		e.byte(1)
		vals := d.Values()
		e.uvarint(uint64(d.SortedLen()))
		e.uvarint(uint64(len(vals)))
		for _, v := range vals {
			e.str(v)
		}
	}
	e.uvarint(uint64(len(t.Indexes)))
	for _, def := range t.Indexes {
		e.uvarint(uint64(def.Attr))
		e.str(def.Kind)
	}
	return e.buf
}

// dec walks one table payload with bounds checking; every failure wraps a
// named sentinel error.
type dec struct {
	buf []byte
	off int
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

// count decodes a uvarint that counts decoded elements, rejecting
// implausible values before any allocation.
func (d *dec) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxSaneCount {
		return 0, fmt.Errorf("%w: implausible %s count %d", ErrCorrupt, what, v)
	}
	return int(v), nil
}

// countSized decodes an element count whose elements occupy at least
// perElem payload bytes each, bounding it by the remaining payload. The
// bound both defeats corrupt-count allocations and — unlike a fixed
// constant — never rejects a count the writer could legitimately have
// produced.
func (d *dec) countSized(what string, perElem int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64((len(d.buf)-d.off)/perElem) {
		return 0, fmt.Errorf("%w: %s count %d exceeds remaining payload", ErrCorrupt, what, v)
	}
	return int(v), nil
}

func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)-d.off) < n {
		return "", fmt.Errorf("%w: string of %d bytes at offset %d", ErrTruncated, n, d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *dec) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("%w: byte at offset %d", ErrTruncated, d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *dec) words() ([]storage.Word, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Divide instead of multiplying so a hostile count cannot overflow.
	if n > uint64(len(d.buf)-d.off)/8 {
		return nil, fmt.Errorf("%w: %d words at offset %d", ErrTruncated, n, d.off)
	}
	if n == 0 {
		return nil, nil // matches the nil Data of an empty partition
	}
	ws := make([]storage.Word, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
	}
	return ws, nil
}

func decodeTable(payload []byte) (*TableSnap, error) {
	d := &dec{buf: payload}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	width, err := d.countSized("attribute", 2) // name uvarint + type byte
	if err != nil {
		return nil, err
	}
	attrs := make([]storage.Attribute, width)
	for i := range attrs {
		if attrs[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		tb, err := d.byte()
		if err != nil {
			return nil, err
		}
		if tb > byte(storage.Bool) {
			return nil, fmt.Errorf("%w: unknown attribute type %d", ErrCorrupt, tb)
		}
		attrs[i].Type = storage.Type(tb)
	}
	for i, a := range attrs {
		for j := 0; j < i; j++ {
			if attrs[j].Name == a.Name {
				return nil, fmt.Errorf("%w: duplicate attribute %q", ErrCorrupt, a.Name)
			}
		}
	}
	schema := storage.NewSchema(name, attrs...)
	groups, err := d.countSized("layout group", 2) // length + >= 1 attribute
	if err != nil {
		return nil, err
	}
	layout := storage.Layout{Groups: make([][]int, groups)}
	for gi := range layout.Groups {
		glen, err := d.countSized("group attribute", 1)
		if err != nil {
			return nil, err
		}
		g := make([]int, glen)
		for i := range g {
			a, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			g[i] = int(a)
		}
		layout.Groups[gi] = g
	}
	if err := layout.Validate(width); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rowsU, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Rows drive no allocation directly (partitions carry their own
	// exact-length checks), but bound them so downstream arithmetic
	// cannot overflow.
	if rowsU > 1<<40 {
		return nil, fmt.Errorf("%w: implausible row count %d", ErrCorrupt, rowsU)
	}
	rows := int(rowsU)
	parts := make([][]storage.Word, groups)
	for gi := range parts {
		if parts[gi], err = d.words(); err != nil {
			return nil, err
		}
		// Division form: group width is >= 1 (Validate rejects empty
		// groups) and a product rows*width could overflow.
		gw := len(layout.Groups[gi])
		if len(parts[gi])/gw != rows || len(parts[gi])%gw != 0 {
			return nil, fmt.Errorf("%w: partition %d holds %d words, want %d rows of stride %d",
				ErrCorrupt, gi, len(parts[gi]), rows, gw)
		}
	}
	dicts := make([]*storage.Dict, width)
	for attr := range dicts {
		flag, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch flag {
		case 0:
		case 1:
			sortedU, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			nvals, err := d.countSized("dictionary value", 1)
			if err != nil {
				return nil, err
			}
			if sortedU > uint64(nvals) {
				return nil, fmt.Errorf("%w: dictionary sorted prefix %d > %d values", ErrCorrupt, sortedU, nvals)
			}
			sorted := int(sortedU)
			vals := make([]string, nvals)
			for i := range vals {
				if vals[i], err = d.str(); err != nil {
					return nil, err
				}
			}
			dicts[attr] = storage.RestoreDict(vals, sorted)
		default:
			return nil, fmt.Errorf("%w: dictionary flag %d", ErrCorrupt, flag)
		}
	}
	nidx, err := d.countSized("index", 2) // attr uvarint + kind length
	if err != nil {
		return nil, err
	}
	idxs := make([]plan.IndexDef, nidx)
	for i := range idxs {
		a, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if a >= uint64(width) {
			return nil, fmt.Errorf("%w: index on attribute %d of width-%d schema", ErrCorrupt, a, width)
		}
		idxs[i].Attr = int(a)
		if idxs[i].Kind, err = d.str(); err != nil {
			return nil, err
		}
		if _, err := index.New(idxs[i].Kind, 0); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return &TableSnap{Schema: schema, Layout: layout, Rows: rows, Parts: parts, Dicts: dicts, Indexes: idxs}, nil
}
