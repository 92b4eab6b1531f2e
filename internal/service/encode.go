package service

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/bits"
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
// Every cell is written straight into its block. Integers, and the
// integer and fraction digits of a short decimal, come two at a time from
// a digit-pair table (appendJSONUint). A string column whose dictionary
// has no more values than the reply has rows is quoted once per reply,
// into the encoder's reused buffers, and each cell copies its value's
// quoted bytes; a larger dictionary is quoted cell by cell, so a point
// lookup's reply quotes only what it sends.

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

// writeResult answers a /query or /exec request with the result set.
// took is measured by the caller, before encoding starts. A Write error
// means the client is gone: encoding stops there.
func (s *DB) writeResult(w http.ResponseWriter, r *http.Request, res *result.Set, took time.Duration, tr *obs.QueryTrace) {
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
	dicts  [][]string
	quoted []quotedDict                     // per column; empty unless its dictionary is quoted once
	base   int                              // first row of the wave being encoded
	chunk  func(worker, morsel, lo, hi int) // appendChunk, bound once
}

// quotedDict is a dictionary quoted once for a reply: value c's JSON text
// is text[offs[c]:offs[c+1]].
type quotedDict struct {
	text []byte
	offs []int
}

// quote fills q with the JSON text of every value of dict, and leaves it
// empty for a nil dict.
func (q *quotedDict) quote(dict []string) {
	q.text, q.offs = q.text[:0], q.offs[:0]
	if dict == nil {
		return
	}
	q.offs = append(q.offs, 0)
	for _, v := range dict {
		q.text = jsonx.AppendString(q.text, v)
		q.offs = append(q.offs, len(q.text))
	}
}

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
	// A string column's value table is captured once. A table published
	// before the decode covers every code in the result, so this is safe
	// after the catalog lock is released even while loads append values. A
	// string column without one (a computed expression) stays codes.
	// One with no more values than the reply has rows is quoted here.
	e.dicts = e.dicts[:0]
	if cap(e.quoted) < len(res.Cols) {
		e.quoted = make([]quotedDict, len(res.Cols))
	}
	e.quoted = e.quoted[:len(res.Cols)]
	for j, c := range res.Cols {
		var dict []string
		if c.Type == storage.String && c.Dict != nil {
			dict = c.Dict.Values()
		}
		e.dicts = append(e.dicts, dict)
		if len(dict) > len(res.Rows) {
			dict = nil
		}
		e.quoted[j].quote(dict)
	}
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
// the morsel's block.
func (e *replyEncoder) appendChunk(_, morsel, lo, hi int) {
	cols, rows, dicts, quoted := e.res.Cols, e.res.Rows, e.dicts, e.quoted
	b := e.blocks[morsel]
	for i := e.base + lo; i < e.base+hi; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, word := range rows[i] {
			if j > 0 {
				b = append(b, ',')
			}
			if word == storage.Null {
				b = append(b, "null"...)
				continue
			}
			typ := storage.Int64 // a cell beyond the declared columns
			if j < len(cols) {
				typ = cols[j].Type
			}
			switch typ {
			case storage.Int64:
				b = appendJSONInt(b, storage.DecodeInt(word))
			case storage.Float64:
				b = appendJSONFloat(b, storage.DecodeFloat(word))
			case storage.Bool:
				b = strconv.AppendBool(b, storage.DecodeBool(word))
			default: // String
				switch dict, q := dicts[j], &quoted[j]; {
				case word >= storage.Word(len(dict)):
					b = appendJSONUint(b, word)
				case len(q.offs) > 0:
					b = append(b, q.text[q.offs[word]:q.offs[word+1]]...)
				default:
					b = jsonx.AppendString(b, dict[word])
				}
			}
		}
		b = append(b, ']')
	}
	e.blocks[morsel] = b
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

// digitPairs holds "00" to "99": digits 2k and 2k+1 are k in decimal.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^0 to 10^19.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// appendJSONInt appends i in decimal: strconv.FormatInt(i, 10).
func appendJSONInt(b []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		b, u = append(b, '-'), -u
	}
	return appendJSONUint(b, u)
}

// appendJSONUint appends u in decimal: strconv.FormatUint(u, 10). It
// counts u's digits first, then writes them from the last, two at a time
// from digitPairs, straight into b's spare capacity: no scratch buffer to
// copy out of.
func appendJSONUint(b []byte, u uint64) []byte {
	// bits.Len64·1233/4096 is ⌊log10 2^len⌋, u's digit count or one less.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	n = max(n, 1) // zero
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		d := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// appendJSONFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in 'e' form below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed to one ("1e-07" is "1e-7"). JSON has
// no NaN or infinity; those become null.
func appendJSONFloat(b []byte, f float64) []byte {
	// Short decimals (prices, loaded decimal text) take a fast path. If
	// t = round(f·1e6) gives back f divided by 1e6 (an exactly rounded
	// division of two exact operands), the decimal t·1e-6 parses to f. Below
	// 1e9, t < 2^50 and ulp(f) < 1e-6, so no other decimal of at most six
	// fraction digits does, and t without its trailing zeros is the
	// shortest one: what AppendFloat(f, 'f', -1, 64) prints.
	if a := math.Abs(f); a >= 1e-6 && a < 1e9 {
		if t := math.RoundToEven(f * 1e6); t/1e6 == f {
			if t < 0 {
				b = append(b, '-')
			}
			u := uint64(math.Abs(t))
			b = appendJSONUint(b, u/1e6)
			frac := u % 1e6
			if frac == 0 {
				return b
			}
			// The six fraction digits as three pairs, then the trailing
			// zeros trimmed: frac is not 0, so a digit other than '0' stops it.
			hi, mid, lo := 2*(frac/1e4), 2*(frac/100%100), 2*(frac%100)
			b = append(b, '.', digitPairs[hi], digitPairs[hi+1], digitPairs[mid], digitPairs[mid+1], digitPairs[lo], digitPairs[lo+1])
			for b[len(b)-1] == '0' {
				b = b[:len(b)-1]
			}
			return b
		}
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
