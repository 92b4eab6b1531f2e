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

	"repro/internal/exec/result"
	"repro/internal/jsonx"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The /query and /exec reply, streamed straight from the result set's
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

// encodeBlock is the streaming unit: rows are formatted into one pooled
// block that is handed to the ResponseWriter whenever it fills, so a reply
// costs one block of memory however many rows it has, and a reply smaller
// than a block is a single Write (net/http then sets Content-Length on
// the small ones itself).
const encodeBlock = 64 << 10

// maxScalarCell bounds one formatted non-string cell with its separators:
// a float64 in 'f' format is at most 25 bytes, an int64 20.
const maxScalarCell = 32

var blockPool = sync.Pool{New: func() any {
	b := make([]byte, 0, encodeBlock)
	return &b
}}

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
	if err := streamResult(w, res, took.Microseconds(), trace, epoch); err != nil {
		s.logger().Debug("reply abandoned",
			slog.String("id", QueryIDFrom(r.Context())),
			slog.String("error", err.Error()),
		)
	}
}

// streamResult writes the reply document to w block by block and returns
// the first Write error without formatting anything further. trace is the
// already marshalled "trace" value (nil to omit it); epoch 0 is omitted.
func streamResult(w io.Writer, res *result.Set, micros int64, trace []byte, epoch uint64) error {
	bp := blockPool.Get().(*[]byte)
	b, err := appendResult((*bp)[:0], w, res, micros, trace, epoch)
	// A block that grew past its size (one very long string) is left to
	// the collector, so the pool holds encodeBlock-sized blocks only.
	if cap(b) == encodeBlock {
		*bp = b[:0]
		blockPool.Put(bp)
	}
	return err
}

// flushOver writes b out to w and starts it over when fewer than room
// bytes of the block are left; the error is w's.
func flushOver(w io.Writer, b []byte, room int) ([]byte, error) {
	if len(b) == 0 || len(b) <= encodeBlock-room {
		return b, nil
	}
	_, err := w.Write(b)
	return b[:0], err
}

// appendResult formats the document into b, writing b out to w and
// starting over whenever the block is full. It returns the block for
// reuse.
func appendResult(b []byte, w io.Writer, res *result.Set, micros int64, trace []byte, epoch uint64) ([]byte, error) {
	var err error
	b = append(b, `{"cols":[`...)
	for i, c := range res.Cols {
		// Worst case every byte of a name becomes a six-byte escape.
		if b, err = flushOver(w, b, 6*len(c.Name)+2*maxScalarCell); err != nil {
			return b, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = jsonx.AppendString(b, c.Name)
		b = append(b, `,"type":`...)
		b = jsonx.AppendString(b, c.Type.String())
		b = append(b, '}')
	}
	b = append(b, `],"rows":[`...)

	// The column's type picks a cell's encoder; what a string column needs
	// besides is its value table, captured here once. A table published
	// before the decode covers every code in the result, so this is safe
	// after the catalog lock is released even while loads append values. A
	// string column without one (a computed expression) stays codes.
	dicts := make([][]string, len(res.Cols))
	for i, c := range res.Cols {
		if c.Type == storage.String && c.Dict != nil {
			dicts[i] = c.Dict.Values()
		}
	}
	for i, row := range res.Rows {
		// Once per row for the brackets (all a row without cells has), once
		// per cell for the cell.
		if b, err = flushOver(w, b, maxScalarCell); err != nil {
			return b, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, word := range row {
			if b, err = flushOver(w, b, maxScalarCell); err != nil {
				return b, err
			}
			if j > 0 {
				b = append(b, ',')
			}
			if word == storage.Null {
				b = append(b, "null"...)
				continue
			}
			typ := storage.Int64 // a cell beyond the declared columns
			if j < len(res.Cols) {
				typ = res.Cols[j].Type
			}
			switch typ {
			case storage.Int64:
				b = strconv.AppendInt(b, storage.DecodeInt(word), 10)
			case storage.Float64:
				b = appendJSONFloat(b, storage.DecodeFloat(word))
			case storage.Bool:
				b = strconv.AppendBool(b, storage.DecodeBool(word))
			default: // String
				dict := dicts[j]
				if word >= storage.Word(len(dict)) {
					b = strconv.AppendUint(b, word, 10)
					break
				}
				v := dict[word]
				if b, err = flushOver(w, b, 6*len(v)+maxScalarCell); err != nil {
					return b, err
				}
				b = jsonx.AppendString(b, v)
			}
		}
		b = append(b, ']')
	}

	if b, err = flushOver(w, b, len(trace)+128); err != nil { // 128: the fixed-size tail
		return b, err
	}
	b = append(b, `],"rowCount":`...)
	b = strconv.AppendInt(b, int64(len(res.Rows)), 10)
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
	b = append(b, "}\n"...)
	_, err = w.Write(b)
	return b, err
}

// appendJSONFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in 'e' form below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed to one ("1e-07" is "1e-7"). JSON has
// no NaN or infinity; those become null.
func appendJSONFloat(b []byte, f float64) []byte {
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
