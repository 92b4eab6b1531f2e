package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Values the encoder must render exactly as encoding/json does (and the
// non-finite floats, which encoding/json refuses and the encoder nulls).
var (
	edgeInts   = []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53) - 1}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456.789,
		1e-6, 0.99e-6, 1.5e-7, -1e-7, 1e-10, 1e-100, // either side of the 'e' cutoff below
		1e20, 9.99e20, 1e21, 1.5e21, -1e21, 1e100, // and above
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64, // denormals
		math.MaxFloat64, -math.MaxFloat64, 1.0 / 3.0,
		0.004, 0.01, 0.07, 0.29, 1.15, -123.4, 500, 1.005, 9999999999999.99, // short decimals
		999999999.999999, 1e9, 1 << 50 / 1e6, math.Nextafter(0.3, 1), // either side of the short-decimal bounds; 0.1+0.2
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	edgeStrings = []string{
		"", "plain", "region-17", `say "hi"`, `back\slash`, "tab\tnewline\nreturn\r", "\b\f", "nul\x00\x01\x1f",
		"<script>&amp;</script>", "del\x7f", "caf\u00e9 \u4e16\u754c \U0001F600", "line\u2028sep\u2029par",
		"bad\xffutf8", "\xc3", "\xe2\x80", "\xed\xa0\x80", strings.Repeat("x", 300) + "\"",
	}
)

// wantCell is encoding/json's rendering of the value a word stands for.
func wantCell(t *testing.T, word storage.Word, c plan.Column) string {
	t.Helper()
	var v any
	switch {
	case word == storage.Null:
		v = nil
	case c.Type == storage.Int64:
		v = storage.DecodeInt(word)
	case c.Type == storage.Float64:
		f := storage.DecodeFloat(word)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "null"
		}
		v = f
	case c.Type == storage.Bool:
		v = storage.DecodeBool(word)
	case c.Dict != nil && word < storage.Word(c.Dict.Len()):
		v = c.Dict.Value(word)
	default:
		v = word
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reply is the envelope as a client decodes it, cells left raw.
type reply struct {
	Cols     []colJSON           `json:"cols"`
	Rows     [][]json.RawMessage `json:"rows"`
	RowCount int                 `json:"rowCount"`
	Micros   int64               `json:"micros"`
	Trace    []obs.OpReport      `json:"trace,omitempty"`
	Epoch    uint64              `json:"epoch,omitempty"`
}

// wantDocument is encoding/json's rendering of the reply for res, built
// cell by cell from the source words; a cell beyond the declared columns
// is an int64.
func wantDocument(t *testing.T, res *result.Set, micros int64) []byte {
	t.Helper()
	ref := reply{Cols: make([]colJSON, len(res.Cols)), Rows: make([][]json.RawMessage, len(res.Rows)), RowCount: len(res.Rows), Micros: micros}
	for j, c := range res.Cols {
		ref.Cols[j] = colJSON{Name: c.Name, Type: c.Type.String()}
	}
	for i, row := range res.Rows {
		ref.Rows[i] = make([]json.RawMessage, len(row))
		for j, word := range row {
			c := plan.Column{Type: storage.Int64} // a cell beyond the declared columns
			if j < len(res.Cols) {
				c = res.Cols[j]
			}
			ref.Rows[i][j] = json.RawMessage(wantCell(t, word, c))
		}
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

func stream(t *testing.T, res *result.Set, micros int64, trace []obs.OpReport, epoch uint64) []byte {
	t.Helper()
	var traceJSON []byte
	if len(trace) > 0 {
		var err error
		if traceJSON, err = json.Marshal(trace); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := streamResult(&buf, par.Serial(), res, micros, traceJSON, epoch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomSet draws a set of rows rows whose cells come from the edge pools
// above; string columns get a dictionary two times in three, a raw-code
// column otherwise.
func randomSet(rng *rand.Rand, rows int) *result.Set {
	types := []storage.Type{storage.Int64, storage.Float64, storage.Bool, storage.String}
	dict := storage.BuildDict(edgeStrings)
	cols := make([]plan.Column, rng.Intn(7)) // zero columns included
	for i := range cols {
		cols[i] = plan.Column{Name: edgeStrings[rng.Intn(len(edgeStrings))], Type: types[rng.Intn(len(types))]}
		if cols[i].Type == storage.String && rng.Intn(3) > 0 {
			cols[i].Dict = dict
		}
	}
	res := result.New(cols)
	for n := rows; n > 0; n-- {
		row := res.NewRow()
		for j, c := range cols {
			switch {
			case rng.Intn(8) == 0:
				row[j] = storage.Null
			case c.Type == storage.Int64:
				row[j] = storage.EncodeInt(edgeInts[rng.Intn(len(edgeInts))])
			case c.Type == storage.Float64:
				row[j] = storage.EncodeFloat(edgeFloats[rng.Intn(len(edgeFloats))])
			case c.Type == storage.Bool:
				row[j] = storage.Word(rng.Intn(2))
			default: // a code, now and then one past the dictionary
				row[j] = storage.Word(rng.Intn(dict.Len() + 2))
			}
		}
	}
	return res
}

// boundarySet is a set of the given rows with every column type, cells
// drawn from the edge pools (Nulls, NaN/±Inf and codes past the dictionary
// included), whose first and last rows carry a string longer than a pooled
// block once escaped. cells false gives rows without cells instead.
func boundarySet(rng *rand.Rand, rows int, cells bool) *result.Set {
	if !cells {
		res := result.New(nil)
		for ; rows > 0; rows-- {
			res.NewRow()
		}
		return res
	}
	long := strings.Repeat("<", maxPooledBlock/5) // six bytes apiece escaped
	dict := storage.BuildDict(append([]string{long}, edgeStrings...))
	res := result.New([]plan.Column{
		{Name: "i", Type: storage.Int64}, {Name: "f", Type: storage.Float64}, {Name: "b", Type: storage.Bool},
		{Name: "s", Type: storage.String, Dict: dict}, {Name: "code", Type: storage.String},
	})
	for i := 0; i < rows; i++ {
		row := res.NewRow()
		row[0] = storage.EncodeInt(edgeInts[rng.Intn(len(edgeInts))])
		row[1] = storage.EncodeFloat(edgeFloats[rng.Intn(len(edgeFloats))])
		row[2] = storage.Word(rng.Intn(2))
		row[3] = dict.MustCode(edgeStrings[rng.Intn(len(edgeStrings))])
		if rng.Intn(16) == 0 {
			row[3] = storage.Word(dict.Len() + rng.Intn(2))
		}
		row[4] = storage.Word(rng.Intn(100))
		for j := range row {
			if rng.Intn(8) == 0 {
				row[j] = storage.Null
			}
		}
		if i == 0 || i == rows-1 {
			row[3] = dict.MustCode(long)
		}
	}
	return res
}

// TestStreamResultMatchesEncodingJSON: over generated sets the streamed
// document decodes, has the declared shape, every cell is byte for byte
// json.Marshal of the value the word stands for, and the whole document is
// encoding/json's. Then the same holds for sets either side of every chunk
// and wave boundary, encoded on pools of 1, 2 and 4 workers.
func TestStreamResultMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 400; iter++ {
		res := randomSet(rng, rng.Intn(40)) // zero rows included
		micros := rng.Int63n(1 << 40)
		out := stream(t, res, micros, nil, 0)
		var got reply
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("set %d does not decode: %v\n%s", iter, err, out)
		}
		if got.RowCount != len(res.Rows) || len(got.Rows) != len(res.Rows) || len(got.Cols) != len(res.Cols) || got.Micros != micros {
			t.Fatalf("set %d: shape %d rows (%d declared) x %d cols, micros %d; want %d x %d, %d",
				iter, len(got.Rows), got.RowCount, len(got.Cols), got.Micros, len(res.Rows), len(res.Cols), micros)
		}
		for i, row := range res.Rows {
			if len(got.Rows[i]) != len(row) {
				t.Fatalf("set %d row %d has %d cells, want %d", iter, i, len(got.Rows[i]), len(row))
			}
			for j, word := range row {
				if want := wantCell(t, word, res.Cols[j]); string(got.Rows[i][j]) != want {
					t.Fatalf("set %d cell [%d][%d] (%v, word %#x) = %s, want %s", iter, i, j, res.Cols[j].Type, word, got.Rows[i][j], want)
				}
			}
		}
		if want := wantDocument(t, res, micros); !bytes.Equal(out, want) {
			t.Fatalf("set %d: document differs from encoding/json's:\n got %s\nwant %s", iter, out, want)
		}
	}

	var opts []par.Options
	for _, workers := range []int{1, 2, 4} {
		pool := par.NewPool(workers)
		defer pool.Close()
		opts = append(opts, par.WithPool(pool))
	}
	const wave = encodeChunkRows * encodeWaveChunks
	for _, rows := range []int{0, 1, encodeChunkRows - 1, encodeChunkRows, encodeChunkRows + 1, wave + 1, 3*wave + 7} {
		for _, cells := range []bool{true, false} {
			res := boundarySet(rng, rows, cells)
			want := wantDocument(t, res, 77)
			for _, opt := range opts {
				var buf bytes.Buffer
				if err := streamResult(&buf, opt, res, 77, nil, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%d rows (cells %v), %d workers: document differs from encoding/json's (%d bytes, want %d)",
						rows, cells, opt.WorkerCount(), buf.Len(), len(want))
				}
			}
		}
	}
}

// TestStreamResultGolden pins the envelope: field order, separators, the
// trailing newline, and that a client finds rowCount in the last 64 bytes.
func TestStreamResultGolden(t *testing.T) {
	dict := storage.BuildDict([]string{"a<b", "open"})
	res := result.New([]plan.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "ok", Type: storage.Bool},
		{Name: "status", Type: storage.String, Dict: dict},
		{Name: "code", Type: storage.String},
	})
	res.Append([]storage.Word{storage.EncodeInt(-7), storage.EncodeFloat(2.5), 1, dict.MustCode("open"), 9})
	res.Append([]storage.Word{storage.Null, storage.EncodeFloat(1e-7), 0, dict.MustCode("a<b"), storage.Null})

	const head = `{"cols":[{"name":"id","type":"int64"},{"name":"price","type":"float64"},{"name":"ok","type":"bool"},` +
		`{"name":"status","type":"string"},{"name":"code","type":"string"}],` +
		`"rows":[[-7,2.5,true,"open",9],[null,1e-7,false,"a\u003cb",null]],"rowCount":2,"micros":1234`

	plain := stream(t, res, 1234, nil, 0)
	if want := head + "}\n"; string(plain) != want {
		t.Errorf("plain reply:\n got %s\nwant %s", plain, want)
	}
	if tail := plain[max(0, len(plain)-64):]; !bytes.Contains(tail, []byte(`"rowCount":`)) {
		t.Errorf("rowCount not in the last 64 bytes: %q", tail)
	}

	trace := []obs.OpReport{{Op: "scan", Detail: "R", RowsIn: 10, RowsOut: 2, Nanos: 99}}
	explained := stream(t, res, 1234, trace, 5)
	if want := head + `,"trace":[{"op":"scan","detail":"R","depth":0,"rowsIn":10,"rowsOut":2,"nanos":99}],"epoch":5}` + "\n"; string(explained) != want {
		t.Errorf("explained reply:\n got %s\nwant %s", explained, want)
	}
}

// chunksOf is the number of chunks a reply of rows rows is written in.
func chunksOf(rows int) int { return max((rows+encodeChunkRows-1)/encodeChunkRows, 1) }

// TestStreamResultSpansBlocks: a reply of many chunks is one Write per
// chunk and the same document as its rows would make in one, with no cell
// split or lost at a boundary, also where a long string grows a block.
func TestStreamResultSpansBlocks(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	long := strings.Repeat("<", 3000) // 18,000 bytes escaped
	dict := storage.BuildDict([]string{long, "s"})
	res := result.New([]plan.Column{{Name: "n", Type: storage.Int64}, {Name: "s", Type: storage.String, Dict: dict}})
	for i := 0; i < 30_000; i++ {
		row := res.NewRow()
		row[0] = storage.EncodeInt(int64(i))
		if i%997 == 0 {
			row[1] = dict.MustCode(long)
		} else {
			row[1] = dict.MustCode("s")
		}
	}
	var w countingWriter
	if err := streamResult(&w, par.WithPool(pool), res, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if w.writes != chunksOf(len(res.Rows)) {
		t.Fatalf("%d writes, want one per chunk (%d)", w.writes, chunksOf(len(res.Rows)))
	}
	var got reply
	if err := json.Unmarshal(w.buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(res.Rows) {
		t.Fatalf("%d rows decoded, want %d", len(got.Rows), len(res.Rows))
	}
	for i, row := range got.Rows {
		if want := wantCell(t, res.Rows[i][1], res.Cols[1]); string(row[0]) != fmt.Sprint(i) || string(row[1]) != want {
			t.Fatalf("row %d = %s, %.20s...", i, row[0], row[1])
		}
	}
}

// TestStreamResultRowsWithoutCells: rows of a set without columns are
// brackets only, and those are chunked too.
func TestStreamResultRowsWithoutCells(t *testing.T) {
	res := result.New(nil)
	for i := 0; i < 100_000; i++ { // 300,000 bytes of "[],"
		res.NewRow()
	}
	var w countingWriter
	if err := streamResult(&w, par.Serial(), res, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if w.writes != chunksOf(len(res.Rows)) {
		t.Fatalf("%d writes, want one per chunk (%d)", w.writes, chunksOf(len(res.Rows)))
	}
	var got reply
	if err := json.Unmarshal(w.buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(res.Rows) || got.RowCount != len(res.Rows) {
		t.Fatalf("%d rows decoded, %d declared, want %d", len(got.Rows), got.RowCount, len(res.Rows))
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestAppendJSONFloatMatchesEncodingJSON: random doubles, decimals of one
// to six fraction digits at every magnitude and their neighbours all
// format as json.Marshal formats them.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 100_000; i++ {
		checkJSONFloat(t, math.Float64frombits(rng.Uint64()))
		for _, scale := range []float64{10, 100, 1e3, 1e4, 1e5, 1e6} {
			d := float64(rng.Int63n(1e15)>>uint(rng.Intn(50))) / scale
			checkJSONFloat(t, d)
			checkJSONFloat(t, -d)
			checkJSONFloat(t, math.Nextafter(d, 0))
			checkJSONFloat(t, math.Nextafter(d, math.Inf(1)))
		}
		checkJSONFloat(t, rng.Float64()*1000)
	}
}

// checkJSONFloat fails t unless appendJSONFloat(f) is json.Marshal(f), or
// null for a value JSON cannot carry.
func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	want := []byte("null")
	if !math.IsNaN(f) && !math.IsInf(f, 0) {
		var err error
		if want, err = json.Marshal(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONFloat(%b) = %s, want %s", f, got, want)
	}
}

// FuzzAppendJSONFloat: for any bit pattern appendJSONFloat is
// json.Marshal's rendering of the float (null for NaN and ±Inf).
func FuzzAppendJSONFloat(f *testing.F) {
	seeds := []float64{0, math.Copysign(0, -1), 1 << 50 / 1e6, math.Nextafter(0.3, 1) /* 0.1+0.2 */, 5e-324}
	for _, edge := range []float64{1e-6, 1e9} {
		seeds = append(seeds, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	for k, scale := 0, 1.0; k <= 6; k, scale = k+1, scale*10 {
		for _, n := range []float64{1, 9, 10, 1 << 49} {
			seeds = append(seeds, n/scale)
		}
	}
	// Six-digit fractions ending in five zeros down to none, and the
	// smallest fraction: every trim of the short-decimal path.
	seeds = append(seeds, 7.1, 7.12, 7.123, 7.1234, 7.12345, 7.123456, 7.000001)
	for _, s := range seeds {
		f.Add(math.Float64bits(s))
		f.Add(math.Float64bits(-s))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkJSONFloat(t, math.Float64frombits(bits))
	})
}

// FuzzAppendJSONInt: for any int64 the three-digit table formatter is
// strconv.AppendInt, appending to what the buffer already holds; so is
// appendJSONUint for the same bits read unsigned.
func FuzzAppendJSONInt(f *testing.F) {
	seeds := []int64{0, 1, 9, 10, 99, 100, math.MinInt64, math.MaxInt64}
	for k, p := 1, int64(10); k <= 18; k, p = k+1, p*10 {
		seeds = append(seeds, p, p-1)
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(-s)
	}
	f.Fuzz(func(t *testing.T, i int64) {
		full, roomy := []byte("x,"), append(make([]byte, 0, 32), "x,"...) // one grows, one has room
		if got, want := appendJSONInt(full, i), strconv.AppendInt([]byte("x,"), i, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONInt(%d) = %q, want %q", i, got, want)
		}
		if got, want := appendJSONUint(roomy, uint64(i)), strconv.AppendUint([]byte("x,"), uint64(i), 10); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONUint(%d) = %q, want %q", uint64(i), got, want)
		}
	})
}

// fuzzBytes hands out a fuzz input a byte or a word at a time, zeros once
// it runs dry.
type fuzzBytes []byte

func (r *fuzzBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzBytes) word() uint64 {
	var b [8]byte
	*r = (*r)[copy(b[:], *r):]
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzDicts returns the dictionaries fuzzSet's string columns use: one
// smaller than most replies (quoted once), one larger than any (quoted
// cell by cell), and none.
func fuzzDicts() []*storage.Dict {
	large := make([]string, 300)
	for i := range large {
		large[i] = fmt.Sprintf("v%03d<%s>", i, edgeStrings[i%len(edgeStrings)])
	}
	return []*storage.Dict{storage.BuildDict(edgeStrings), storage.BuildDict(large), nil}
}

// fuzzSet builds a result set from a fuzz input: up to six columns of
// every type, string columns over one of dicts; then rows until the input
// runs dry, one in eight wider than the columns. Cells are Null, edge
// values, raw bits, integers either side of 1e9, decimals of two and six
// fraction digits, and codes in and out of range.
func fuzzSet(data []byte, dicts []*storage.Dict) *result.Set {
	r := fuzzBytes(data)
	cols := make([]plan.Column, r.byte()%7)
	for j := range cols {
		k := int(r.byte() % 6)
		cols[j] = plan.Column{Name: fmt.Sprint("c", j), Type: storage.String}
		if k < 3 {
			cols[j].Type = []storage.Type{storage.Int64, storage.Float64, storage.Bool}[k]
		} else {
			cols[j].Dict = dicts[k-3]
		}
	}
	res := result.New(cols)
	for len(r) > 0 {
		row := make([]storage.Word, len(cols))
		if r.byte()%8 == 0 {
			row = append(row, make([]storage.Word, 1+r.byte()%2)...)
		}
		for j := range row {
			tag, v := r.byte(), r.word()
			typ := storage.Int64
			if j < len(cols) {
				typ = cols[j].Type
			}
			switch {
			case tag%8 == 0:
				row[j] = storage.Null
			case typ == storage.Int64:
				row[j] = storage.EncodeInt([]int64{edgeInts[v%uint64(len(edgeInts))], int64(v), int64(v%4e9) - 2e9, int64(int16(v))}[tag>>3%4])
			case typ == storage.Float64:
				row[j] = storage.EncodeFloat([]float64{edgeFloats[v%uint64(len(edgeFloats))], math.Float64frombits(v), float64(int64(v%4e11)-2e11) / 100, float64(int32(v)) / 1e6}[tag>>3%4])
			case typ == storage.Bool:
				row[j] = storage.Word(v % 2)
			case cols[j].Dict != nil:
				row[j] = storage.Word(v % uint64(cols[j].Dict.Len()+3))
			default:
				row[j] = storage.Word(v % (1 << 40))
			}
		}
		res.Append(row)
	}
	return res
}

// FuzzStreamResult: for rows built from the fuzz input, the streamed
// document is encoding/json's, serially and on a two-worker pool.
func FuzzStreamResult(f *testing.F) {
	pool := par.NewPool(2)
	f.Cleanup(pool.Close)
	dicts := fuzzDicts()
	for i := range max(len(edgeInts), len(edgeFloats), len(edgeStrings)) {
		var seed []byte
		seed = append(seed, 6, 0, 1, 2, 3, 4, 5) // one column of each kind
		for k := range 24 {
			seed = append(seed, byte(i+k), byte(8*(k%4)+1))
			seed = binary.LittleEndian.AppendUint64(seed, uint64(i+k))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res := fuzzSet(data, dicts)
		want := wantDocument(t, res, 5)
		for _, opt := range []par.Options{par.Serial(), par.WithPool(pool)} {
			var buf bytes.Buffer
			if err := streamResult(&buf, opt, res, 5, nil, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%d workers: document differs from encoding/json's:\n got %s\nwant %s", opt.WorkerCount(), buf.Bytes(), want)
			}
		}
	})
}

// recentLike builds rows of the benchmark's `recent` table: two ids, two
// small measures, two prices with cents, an 8-value and a 64-value string.
func recentLike(rows int) *result.Set {
	status, region := make([]string, 8), make([]string, 64)
	for i := range status {
		status[i] = fmt.Sprintf("st-%d", i)
	}
	for i := range region {
		region[i] = fmt.Sprintf("region-%d", i)
	}
	sd, rd := storage.BuildDict(status), storage.BuildDict(region)
	res := result.New([]plan.Column{
		{Name: "id", Type: storage.Int64}, {Name: "customer", Type: storage.Int64},
		{Name: "m1", Type: storage.Int64}, {Name: "m2", Type: storage.Int64},
		{Name: "price", Type: storage.Float64}, {Name: "discount", Type: storage.Float64},
		{Name: "status", Type: storage.String, Dict: sd}, {Name: "region", Type: storage.String, Dict: rd},
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		row := res.NewRow()
		row[0] = storage.EncodeInt(int64(i))
		row[1] = storage.EncodeInt(rng.Int63n(1_000_000))
		row[2] = storage.EncodeInt(rng.Int63n(1000))
		row[3] = storage.EncodeInt(rng.Int63n(1000))
		row[4] = storage.EncodeFloat(float64(rng.Intn(100_000)) / 100)
		row[5] = storage.EncodeFloat(float64(rng.Intn(100_000)) / 100)
		row[6] = storage.Word(rng.Intn(len(status)))
		row[7] = storage.Word(rng.Intn(len(region)))
	}
	return res
}

// TestStreamResultAllocsAreConstant: with its encoder in hand, a serial
// reply allocates the same bytes whatever its rows, a one-chunk reply
// makes at most perReply allocations, and on a pool every wave adds at
// most perWave (par.Run's job and its completion channel).
func TestStreamResultAllocsAreConstant(t *testing.T) {
	const perReply, perWave = 8, 2
	pool := par.NewPool(2)
	defer pool.Close()
	e := newReplyEncoder()
	measure := func(opt par.Options, rows int) (allocs, bytes uint64) {
		res := recentLike(rows)
		run := func() {
			if err := e.encode(io.Discard, opt, res, 1, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // grows the blocks
		// The least of three rounds, so that an allocation made meanwhile by
		// another goroutine (a previous test's server winding down) is not
		// charged to the encoder.
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range 3 {
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	small, smallBytes := measure(par.Serial(), 10)
	large, largeBytes := measure(par.Serial(), 100_000)
	if small > perReply || largeBytes != smallBytes {
		t.Errorf("serial reply: %d allocations (%d B) for 10 rows, %d (%d B) for 100,000; want at most %d and the same bytes",
			small, smallBytes, large, largeBytes, perReply)
	}
	if one, _ := measure(par.WithPool(pool), 10); one > perReply {
		t.Errorf("one-chunk reply on a pool: %d allocations, want at most %d", one, perReply)
	}
	rows := 3*encodeChunkRows*encodeWaveChunks + 7
	waves := uint64(4)
	if many, _ := measure(par.WithPool(pool), rows); many > perReply+perWave*waves {
		t.Errorf("%d-row reply on a pool: %d allocations, want at most %d + %d per wave (%d waves)", rows, many, perReply, perWave, waves)
	}
}

// failingWriter is a ResponseWriter whose connection breaks after limit
// bytes: the Write that crosses the limit fails, and so does every later
// one.
type failingWriter struct {
	*httptest.ResponseRecorder
	limit, written    int
	writesAfterFailed int
	failed            bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.writesAfterFailed++
		return 0, errors.New("broken pipe")
	}
	if w.written+len(p) > w.limit {
		w.failed = true
		return 0, errors.New("broken pipe")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteResultStopsWhenClientIsGone: after the first failed Write the
// writer formats nothing more, serially or on a pool, and says so under
// the request's id.
func TestWriteResultStopsWhenClientIsGone(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := New(NewDemoDB(10), Config{Workers: workers})
		defer s.Close()
		var logged bytes.Buffer
		s.SetLogger(slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelDebug})))

		res := recentLike(50_000) // four waves
		w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), limit: 300_000}
		r := httptest.NewRequest(http.MethodPost, "/query", nil)
		r = r.WithContext(WithQueryID(r.Context(), "gone-1"))
		start := time.Now()
		s.writeResult(w, r, res, time.Since(start), nil)

		if !w.failed {
			t.Fatalf("workers %d: the writer never reached the limit", workers)
		}
		if w.writesAfterFailed > 1 {
			t.Errorf("workers %d: %d Writes followed the failed one, want at most 1", workers, w.writesAfterFailed)
		}
		if !strings.Contains(logged.String(), "id=gone-1") || !strings.Contains(logged.String(), "broken pipe") {
			t.Errorf("workers %d: no debug line naming the query and the error: %q", workers, logged.String())
		}
	}
}
