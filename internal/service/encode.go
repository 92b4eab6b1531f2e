package service

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
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
	base   int                              // first row of the wave being encoded
	chunk  func(worker, morsel, lo, hi int) // appendChunk, bound once
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
	e.dicts = e.dicts[:0]
	for _, c := range res.Cols {
		var dict []string
		if c.Type == storage.String && c.Dict != nil {
			dict = c.Dict.Values()
		}
		e.dicts = append(e.dicts, dict)
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
}

// appendChunk is the par.Run body: it appends rows [base+lo, base+hi) to
// the morsel's block.
func (e *replyEncoder) appendChunk(_, morsel, lo, hi int) {
	cols, rows, dicts := e.res.Cols, e.res.Rows, e.dicts
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
				b = strconv.AppendInt(b, storage.DecodeInt(word), 10)
			case storage.Float64:
				b = appendJSONFloat(b, storage.DecodeFloat(word))
			case storage.Bool:
				b = strconv.AppendBool(b, storage.DecodeBool(word))
			default: // String
				if dict := dicts[j]; word < storage.Word(len(dict)) {
					b = jsonx.AppendString(b, dict[word])
				} else {
					b = strconv.AppendUint(b, word, 10)
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
	b = strconv.AppendInt(b, int64(rows), 10)
	b = append(b, `,"micros":`...)
	b = strconv.AppendInt(b, micros, 10)
	if trace != nil {
		b = append(b, `,"trace":`...)
		b = append(b, trace...)
	}
	if epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, epoch, 10)
	}
	return append(b, "}\n"...)
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
			b = strconv.AppendUint(b, u/1e6, 10)
			frac, pow := u%1e6, uint64(1e6)
			if frac == 0 {
				return b
			}
			for ; frac%10 == 0; frac /= 10 {
				pow /= 10
			}
			// pow+frac is a 1 and then frac zero-padded: the 1 becomes the point.
			n := len(b)
			b = strconv.AppendUint(b, pow+frac, 10)
			b[n] = '.'
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
