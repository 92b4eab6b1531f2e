package service

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/jsonx"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The /query and /exec reply, formatted straight from the result set's
// words. The document is what encoding/json would produce for
//
//	{"cols":[{"name","type"}...],"rows":[[...]...],"rowCount":N,"micros":N
//	 [,"trace":[...]][,"epoch":N]}\n
//
// in exactly that field order (clients read rowCount from the tail of a
// large reply without decoding it). Words decode by column type:
// int64/float64/bool become JSON numbers/booleans; string columns whose
// provenance is a base table decode through that table's dictionary to
// real strings, computed string expressions without a dictionary stay
// codes. NULL is JSON null, and so is a non-finite float, which JSON
// cannot carry.
//
// Rows are encoded in chunks of encodeChunkRows, one pooled block per
// chunk, on the service's morsel pool: a wave of encodeWaveChunks chunks
// is formatted in parallel, then the handler writes the wave's blocks in
// row order and starts the next. A reply therefore holds one wave of
// blocks however many rows it has, and a reply of one chunk is formatted
// inline and sent in a single Write (net/http then sets Content-Length on
// it itself).
//
// One row loop writes every row. encode resolves each column's kind
// once per reply: integer, float, boolean, codes into a dictionary quoted
// once, codes into a dictionary quoted cell by cell, or codes without a
// dictionary. It also sums a worst-case row width: numericCellBytes per
// cell, or a column's longest quoted value where that is longer. For each
// row appendChunk reserves that width in the block once and writes every
// cell by index into it:
//
//   - an integer below 1e9, and the integer part of a short decimal, comes
//     three digits at a time from digits3, one 4- or 8-byte store a group;
//   - a short decimal's six fraction digits are two digits3 lookups and one
//     8-byte store, their trailing zeros dropped by the table's count;
//   - a code into a dictionary quoted once is a copy of its value's quoted
//     bytes. Such a dictionary has no more values than the reply has rows,
//     and is quoted into the encoder's reused buffers.
//
// Only rare cells leave the loop for an append: integers from 1e9, floats
// that are not short decimals (strconv's shortest form, or null), values of
// a larger dictionary, quoted cell by cell so that a point lookup's reply
// quotes only what it sends, and cells beyond the declared columns.

// encodeChunkRows is the rows one worker formats into one block.
const encodeChunkRows = 2048

// encodeWaveChunks is the chunks formatted before any is written.
const encodeWaveChunks = 8

// maxPooledBlock caps the blocks kept for reuse: one grown by a very long
// string is left to the collector.
const maxPooledBlock = 1 << 20

// encoderPool holds replyEncoders, so a reply allocates nothing once the
// pool is warm.
var encoderPool = sync.Pool{New: func() any { return newReplyEncoder() }}

// writeResult answers a /query or /exec request with the result set,
// then releases the set: its row memory goes back to the free list for
// the next reply, so the caller must not read res afterwards. took is
// measured by the caller, before encoding starts. A Write error means the
// client is gone: encoding stops there.
func (s *DB) writeResult(w http.ResponseWriter, r *http.Request, res *result.Set, took time.Duration, tr *obs.QueryTrace) {
	defer res.Release()
	var trace []byte
	var epoch uint64
	if tr != nil {
		epoch = tr.Epoch
		if rep := tr.Report(); len(rep) > 0 {
			var err error
			if trace, err = json.Marshal(rep); err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := streamResult(w, s.opt, res, took.Microseconds(), trace, epoch); err != nil {
		s.logger().Debug("reply abandoned",
			slog.String("id", QueryIDFrom(r.Context())),
			slog.String("error", err.Error()),
		)
	}
}

// streamResult writes the reply document to w wave by wave, encoding each
// wave's chunks on opt's workers, and returns the first Write error
// without formatting anything further. trace is the already marshalled
// "trace" value (nil to omit it); epoch 0 is omitted.
func streamResult(w io.Writer, opt par.Options, res *result.Set, micros int64, trace []byte, epoch uint64) error {
	e := encoderPool.Get().(*replyEncoder)
	err := e.encode(w, opt, res, micros, trace, epoch)
	encoderPool.Put(e)
	return err
}

// replyEncoder formats one reply at a time. Block i holds chunk i of the
// wave being encoded; the first block of a reply starts with the
// document's head and its last one ends with the tail. Workers share the
// encoder, each appending only to the blocks of the chunks it claimed.
type replyEncoder struct {
	blocks [encodeWaveChunks][]byte
	res    *result.Set
	kinds  []colKind                        // per column
	dicts  [][]string                       // per column; nil unless its kind is kindDict
	quoted []quotedDict                     // per column; empty unless its kind is kindQuoted
	width  int                              // bytes a row of the declared columns may take
	base   int                              // first row of the wave being encoded
	chunk  func(worker, morsel, lo, hi int) // appendChunk, bound once
}

// colKind is how appendChunk writes a column's cells.
type colKind uint8

const (
	kindInt    colKind = iota // int64
	kindFloat                 // float64
	kindBool                  // bool
	kindQuoted                // codes into a dictionary quoted once for the reply
	kindDict                  // codes into a dictionary quoted cell by cell
	kindCode                  // codes without a dictionary, written as integers
)

// numericCellBytes is the room a cell is given in a row's reservation: a
// comma, the longest number strconv writes (24 bytes), and the spare bytes
// a 4- or 8-byte store writes past a cell's end.
const numericCellBytes = 32

// quotedDict is a dictionary quoted once for a reply: value c's JSON text
// is text[offs[c]:offs[c+1]], and none is longer than longest bytes.
type quotedDict struct {
	text    []byte
	offs    []int
	longest int
}

// quote fills q with the JSON text of every value of dict, and leaves it
// empty for a nil dict.
func (q *quotedDict) quote(dict []string) {
	q.text, q.offs, q.longest = q.text[:0], q.offs[:0], 0
	if dict == nil {
		return
	}
	q.offs = append(q.offs, 0)
	for _, v := range dict {
		start := len(q.text)
		q.text = jsonx.AppendString(q.text, v)
		q.offs = append(q.offs, len(q.text))
		q.longest = max(q.longest, len(q.text)-start)
	}
	q.text = append(q.text, make([]byte, shortQuoted)...) // so each value starts shortQuoted readable bytes
}

// shortQuoted is the length up to which appendChunk copies a value quoted
// once as one fixed 16-byte move rather than a call to memmove.
const shortQuoted = 16

func newReplyEncoder() *replyEncoder {
	e := &replyEncoder{}
	e.chunk = e.appendChunk
	return e
}

// encode is streamResult on this encoder. It leaves the encoder holding
// no reference to res, its blocks empty and none larger than
// maxPooledBlock.
func (e *replyEncoder) encode(w io.Writer, opt par.Options, res *result.Set, micros int64, trace []byte, epoch uint64) error {
	defer e.reset()
	e.res, e.base = res, 0
	e.resolve(res)
	b := append(e.blocks[0], `{"cols":[`...)
	for i, c := range res.Cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = jsonx.AppendString(b, c.Name)
		b = append(b, `,"type":`...)
		b = jsonx.AppendString(b, c.Type.String())
		b = append(b, '}')
	}
	e.blocks[0] = append(b, `],"rows":[`...)

	opt.MorselRows = encodeChunkRows
	n := len(res.Rows)
	for ; ; e.base += encodeChunkRows * encodeWaveChunks {
		rows := min(n-e.base, encodeChunkRows*encodeWaveChunks)
		par.Run(rows, opt, e.chunk)
		used := max(opt.Morsels(rows), 1) // a reply without rows still has its head
		last := e.base+rows == n
		if last {
			e.blocks[used-1] = appendTail(e.blocks[used-1], n, micros, trace, epoch)
		}
		for i, b := range e.blocks[:used] {
			if _, err := w.Write(b); err != nil {
				return err
			}
			e.blocks[i] = b[:0]
		}
		if last {
			return nil
		}
	}
}

// resolve sets each column's kind and the row width for res. A string
// column's value table is captured once. A table published before the
// decode covers every code in the result, so this is safe after the
// catalog lock is released even while loads append values. A string
// column without one (a computed expression) stays codes. One with no
// more values than the reply has rows is quoted here.
func (e *replyEncoder) resolve(res *result.Set) {
	e.kinds, e.dicts = e.kinds[:0], e.dicts[:0]
	if cap(e.quoted) < len(res.Cols) {
		e.quoted = make([]quotedDict, len(res.Cols))
	}
	e.quoted = e.quoted[:len(res.Cols)]
	e.width = len(",[]") + numericCellBytes
	for j, c := range res.Cols {
		kind, dict := kindInt, []string(nil)
		switch c.Type {
		case storage.Float64:
			kind = kindFloat
		case storage.Bool:
			kind = kindBool
		case storage.String:
			kind = kindCode
			if c.Dict != nil {
				kind, dict = kindDict, c.Dict.Values()
			}
		}
		q := &e.quoted[j]
		if kind == kindDict && len(dict) <= len(res.Rows) {
			q.quote(dict)
			kind, dict = kindQuoted, nil
		} else {
			q.quote(nil)
		}
		e.kinds, e.dicts = append(e.kinds, kind), append(e.dicts, dict)
		e.width += max(numericCellBytes, 1+q.longest)
	}
}

func (e *replyEncoder) reset() {
	e.res = nil
	clear(e.dicts)
	for i, b := range e.blocks {
		if cap(b) > maxPooledBlock {
			b = nil
		}
		e.blocks[i] = b[:0]
	}
	for i := range e.quoted {
		if cap(e.quoted[i].text) > maxPooledBlock {
			e.quoted[i] = quotedDict{}
		}
	}
}

// appendChunk is the par.Run body: it appends rows [base+lo, base+hi) to
// the morsel's block. Each row's reservation holds every cell the loop
// writes in place; a cell that leaves the loop appends to the block and
// reserves the width again.
func (e *replyEncoder) appendChunk(_, morsel, lo, hi int) {
	rows, kinds, quoted, width := e.res.Rows, e.kinds, e.quoted, e.width
	b := e.blocks[morsel]
	for i := e.base + lo; i < e.base+hi; i++ {
		row := rows[i]
		cells := row[:min(len(row), len(kinds))]
		b = slices.Grow(b, width)
		buf, n := b[:cap(b)], len(b)
		if i > 0 {
			buf[n] = ','
			n++
		}
		buf[n] = '['
		n++
		for j, word := range cells {
			if j > 0 {
				buf[n] = ','
				n++
			}
			if word == storage.Null {
				binary.LittleEndian.PutUint32(buf[n:], nullText)
				n += 4
				continue
			}
			switch kinds[j] {
			case kindInt:
				v := storage.DecodeInt(word)
				u := uint64(v)
				if v < 0 {
					buf[n] = '-'
					n, u = n+1, -u
				}
				switch {
				case u < 1e3:
					n = putLead(buf, n, u)
				case u < 1e9:
					n = putSmall(buf, n, u)
				default:
					n = putUint(buf, n, u)
				}
			case kindFloat:
				f := storage.DecodeFloat(word)
				if end, ok := putShortDecimal(buf, n, f); ok {
					n = end
				} else {
					t := appendJSONFloat(buf[:n], f)
					buf, n = t[:cap(t)], len(t)
				}
			case kindBool:
				if word != 0 {
					binary.LittleEndian.PutUint32(buf[n:], trueText)
					n += 4
				} else {
					binary.LittleEndian.PutUint64(buf[n:], falseText)
					n += 5
				}
			case kindQuoted:
				if q := &quoted[j]; word < storage.Word(len(q.offs)-1) {
					lo, hi := q.offs[word], q.offs[word+1]
					if q.longest <= shortQuoted {
						*(*[shortQuoted]byte)(buf[n:]) = *(*[shortQuoted]byte)(q.text[lo:])
					} else {
						copy(buf[n:], q.text[lo:hi])
					}
					n += hi - lo
				} else {
					n = putUint(buf, n, word)
				}
			case kindDict:
				if dict := e.dicts[j]; word < storage.Word(len(dict)) {
					t := slices.Grow(jsonx.AppendString(buf[:n], dict[word]), width)
					buf, n = t[:cap(t)], len(t)
				} else {
					n = putUint(buf, n, word)
				}
			default: // kindCode
				n = putUint(buf, n, word)
			}
		}
		b = buf[:n]
		if len(cells) < len(row) {
			b = appendExtraCells(b, row, len(cells))
		}
		b = append(b, ']')
	}
	e.blocks[morsel] = b
}

// appendExtraCells appends row[j:], cells beyond the declared columns, as
// integers.
func appendExtraCells(b []byte, row []storage.Word, j int) []byte {
	for ; j < len(row); j++ {
		if j > 0 {
			b = append(b, ',')
		}
		if row[j] == storage.Null {
			b = append(b, "null"...)
		} else {
			b = appendJSONInt(b, storage.DecodeInt(row[j]))
		}
	}
	return b
}

// appendTail closes the rows array and appends the fields after it.
func appendTail(b []byte, rows int, micros int64, trace []byte, epoch uint64) []byte {
	b = append(b, `],"rowCount":`...)
	b = appendJSONInt(b, int64(rows))
	b = append(b, `,"micros":`...)
	b = appendJSONInt(b, micros)
	if trace != nil {
		b = append(b, `,"trace":`...)
		b = append(b, trace...)
	}
	if epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = appendJSONUint(b, epoch)
	}
	return append(b, "}\n"...)
}

// The literals a cell may be, as the little-endian words that store them.
const (
	nullText  = uint32('n') | uint32('u')<<8 | uint32('l')<<16 | uint32('l')<<24
	trueText  = uint32('t') | uint32('r')<<8 | uint32('u')<<16 | uint32('e')<<24
	falseText = uint64('f') | uint64('a')<<8 | uint64('l')<<16 | uint64('s')<<24 | uint64('e')<<32
)

// digits3 holds 0 to 999 as three zero-padded ASCII digits in its low
// three bytes, first digit lowest, so a little-endian store writes them in
// order. The top byte counts the digits' trailing zeros in its low two bits
// ("000" counts 3) and their leading zeros in its top two ("000" counts 2,
// so that 0 keeps one digit).
var digits3 = func() (t [1000]uint32) {
	for i := range t {
		trailing, leading := 0, 0
		for k := i; trailing < 3 && k%10 == 0; k /= 10 {
			trailing++
		}
		for k := 100; k > 1 && i < k; k /= 10 {
			leading++
		}
		t[i] = uint32('0'+i/100) | uint32('0'+i/10%10)<<8 | uint32('0'+i%10)<<16 |
			uint32(trailing)<<24 | uint32(leading)<<30
	}
	return t
}()

// putLead writes u < 1000 without leading zeros at buf[n:] and returns
// the end. Like every put function it stores whole words, so buf holds
// spare bytes past the digits it writes (numericCellBytes covers them).
func putLead(buf []byte, n int, u uint64) int {
	d := digits3[u]
	leading := d >> 30
	binary.LittleEndian.PutUint32(buf[n:], d>>(8*leading))
	return n + 3 - int(leading)
}

// putSmall writes u < 1e9 in decimal at buf[n:] and returns the end.
func putSmall(buf []byte, n int, u uint64) int {
	switch {
	case u < 1e3:
		return putLead(buf, n, u)
	case u < 1e6:
		hi := u / 1e3
		n = putLead(buf, n, hi)
		binary.LittleEndian.PutUint32(buf[n:], digits3[u-hi*1e3])
		return n + 3
	}
	hi := u / 1e6
	lo := u - hi*1e6
	mid := lo / 1e3
	n = putLead(buf, n, hi)
	binary.LittleEndian.PutUint64(buf[n:], uint64(digits3[mid]&0xffffff)|uint64(digits3[lo-mid*1e3])<<24)
	return n + 6
}

// putUint writes any u in decimal at buf[n:], nine digits at a time below
// its leading ones, and returns the end.
func putUint(buf []byte, n int, u uint64) int {
	if u < 1e9 {
		return putSmall(buf, n, u)
	}
	hi := u / 1e9
	n = putUint(buf, n, hi)
	u -= hi * 1e9
	top := u / 1e6
	lo := u - top*1e6
	mid := lo / 1e3
	binary.LittleEndian.PutUint32(buf[n:], digits3[top])
	binary.LittleEndian.PutUint64(buf[n+3:], uint64(digits3[mid]&0xffffff)|uint64(digits3[lo-mid*1e3])<<24)
	return n + 9
}

// putShortDecimal writes f at buf[n:] and returns the end if f is a short
// decimal: one that six fraction digits carry exactly, under 1e9.
//
// If t = round(f·1e6) gives back f divided by 1e6 (an exactly rounded
// division of two exact operands), the decimal t·1e-6 parses to f. Below
// 1e9, t < 2^50 and ulp(f) < 1e-6, so no other decimal of at most six
// fraction digits does, and t without its trailing zeros is the shortest
// one: what AppendFloat(f, 'f', -1, 64) prints.
func putShortDecimal(buf []byte, n int, f float64) (int, bool) {
	a := math.Abs(f)
	if a < 1e-6 || a >= 1e9 {
		return n, false
	}
	t := math.RoundToEven(f * 1e6)
	if t/1e6 != f {
		return n, false
	}
	v := int64(t) // |t| < 1e15
	if v < 0 {
		buf[n] = '-'
		n, v = n+1, -v
	}
	u := uint64(v)
	whole := u / 1e6
	if whole < 1e3 {
		n = putLead(buf, n, whole)
	} else {
		n = putSmall(buf, n, whole)
	}
	frac := u - whole*1e6
	if frac == 0 {
		return n, true
	}
	// The point and six digits in one store, less their trailing zeros:
	// frac is not 0, so hi is not 0 where lo is.
	hi := frac / 1e3
	dh, dl := digits3[hi], digits3[frac-hi*1e3]
	zeros := dl >> 24 & 3
	if zeros == 3 {
		zeros += dh >> 24 & 3
	}
	binary.LittleEndian.PutUint64(buf[n:], '.'|uint64(dh&0xffffff)<<8|uint64(dl&0xffffff)<<32)
	return n + 7 - int(zeros), true
}

// appendJSONInt appends i in decimal: strconv.FormatInt(i, 10).
func appendJSONInt(b []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		b, u = append(b, '-'), -u
	}
	return appendJSONUint(b, u)
}

// appendJSONUint appends u in decimal: strconv.FormatUint(u, 10).
func appendJSONUint(b []byte, u uint64) []byte {
	b = slices.Grow(b, numericCellBytes)
	buf := b[:cap(b)]
	return buf[:putUint(buf, len(b), u)]
}

// appendJSONFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in 'e' form below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed to one ("1e-07" is "1e-7"). JSON has
// no NaN or infinity; those become null.
func appendJSONFloat(b []byte, f float64) []byte {
	b = slices.Grow(b, numericCellBytes)
	buf := b[:cap(b)]
	if n, ok := putShortDecimal(buf, len(b), f); ok {
		return buf[:n]
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
