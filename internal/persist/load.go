package persist

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Streaming bulk ingestion in two steps. A reader (CSVReader,
// NDJSONReader) turns a byte stream into Batches for one schema: flat
// word rows, every numeric and bool cell decoded into its word as the
// reader scans the record, with no allocation per row or per cell.
// EncodeRows then maps a batch's string cells to dictionary codes. The
// steps are split so a caller can read outside its catalog lock and
// encode inside it; the dictionary growth a batch needs is returned
// rather than applied, so the caller can log it before it touches shared
// state. A caller done with a batch releases it, and the reader's later
// batches reuse its buffers, so a load's garbage does not grow with its
// size.

// Batch is a run of rows read from an ingest stream: Words holds Rows()
// rows of schema-width words, row-major in schema attribute order. A
// NULL cell of any type is storage.Null. Any other string cell's word
// numbers the cell among the batch's string cells, whose text Str
// returns, until EncodeRows replaces it with a dictionary code.
type Batch struct {
	Words []storage.Word
	text  []byte // the string cells' text, back to back
	ends  []int  // end offset in text of each string cell
	width int
	max   int         // rows the batch is filled to
	free  chan *Batch // its reader's released batches
}

// newFreeList returns a reader's list of released batches. Its size is
// the most batches a pipelined load holds at once: one committing, one
// waiting to commit and one being read.
func newFreeList() chan *Batch { return make(chan *Batch, 3) }

// newBatch returns an empty batch for up to max rows of width words,
// reusing the buffers of a batch released to free when there is one.
func newBatch(free chan *Batch, width, max int) *Batch {
	var b *Batch
	select {
	case b = <-free:
	default:
		b = &Batch{free: free}
	}
	if cap(b.Words) < width*max {
		b.Words = make([]storage.Word, 0, width*max)
	}
	b.Words, b.text, b.ends, b.width, b.max = b.Words[:0], b.text[:0], b.ends[:0], width, max
	return b
}

// Release hands the batch's buffers to a later batch of the same reader.
// The caller must not use b, or a slice Str returned, afterwards.
func (b *Batch) Release() {
	select {
	case b.free <- b:
	default: // the list is full: leave b to the collector
	}
}

// Rows returns the number of rows in the batch.
func (b *Batch) Rows() int { return len(b.Words) / b.width }

// Str returns the text of the string cell numbered w. It aliases the
// batch.
func (b *Batch) Str(w storage.Word) []byte {
	start := 0
	if w > 0 {
		start = b.ends[w-1]
	}
	return b.text[start:b.ends[w]]
}

func (b *Batch) full() bool { return len(b.Words) == b.max*b.width }

// row extends the batch by one row and returns its words.
func (b *Batch) row() []storage.Word {
	n := len(b.Words)
	b.Words = b.Words[:n+b.width]
	return b.Words[n:]
}

// cell decodes one cell's text by type: a string cell is recorded, an
// empty other cell is NULL, and anything else goes through strconv.
func (b *Batch) cell(t storage.Type, text []byte) (storage.Word, error) {
	switch {
	case t == storage.String:
		b.text = append(b.text, text...)
		b.ends = append(b.ends, len(b.text))
		return storage.Word(len(b.ends) - 1), nil
	case len(text) == 0:
		return storage.Null, nil
	case t == storage.Int64:
		v, err := strconv.ParseInt(string(text), 10, 64)
		return storage.EncodeInt(v), err
	case t == storage.Float64:
		v, err := strconv.ParseFloat(string(text), 64)
		return storage.EncodeFloat(v), err
	default:
		v, err := strconv.ParseBool(string(text))
		return storage.EncodeBool(v), err
	}
}

// BatchReader yields batches of rows; io.EOF ends the stream.
type BatchReader interface {
	// ReadBatch returns a batch of 1 to max rows, or io.EOF and no batch
	// when the input is exhausted.
	ReadBatch(max int) (*Batch, error)
}

// CSVReader streams comma-separated rows of a fixed schema in the
// dialect of encoding/csv's defaults: empty lines are skipped, a "\r\n"
// line end counts as "\n", and a record must have one field per
// attribute. Empty cells are NULL for non-string columns; there is no
// quoting convention for NULL strings.
//
// A record without a '"' is split and decoded in one pass over its bytes
// in the read buffer. A record with one is handed whole to encoding/csv,
// the only parser of quoted fields.
type CSVReader struct {
	r     *bufio.Reader
	attrs []storage.Attribute
	line  int    // physical lines read
	long  []byte // a line longer than r's buffer
	cell  []byte // a quoted record's field
	free  chan *Batch

	rec    []byte        // a quoted record's lines
	recSrc bytes.Reader  // reads rec
	recBuf *bufio.Reader // buffers recSrc for encoding/csv
}

// NewCSVReader reads CSV rows of the given attributes from r.
func NewCSVReader(r io.Reader, attrs []storage.Attribute) *CSVReader {
	c := &CSVReader{r: bufio.NewReaderSize(r, 64<<10), attrs: attrs, free: newFreeList()}
	c.recBuf = bufio.NewReader(&c.recSrc)
	return c
}

// ReadBatch implements BatchReader.
func (c *CSVReader) ReadBatch(max int) (*Batch, error) {
	b := newBatch(c.free, len(c.attrs), max)
	for !b.full() {
		line, err := c.readLine()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("persist: csv: %w", err)
		}
		if bytes.IndexByte(line, '"') >= 0 {
			err = c.quotedRecord(b, line)
		} else if line = trimLineEnd(line); len(line) > 0 {
			err = c.plainRecord(b, line)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(b.Words) == 0 {
		return nil, io.EOF
	}
	return b, nil
}

// readLine returns the next physical line, '\n' included unless the
// input ends without one. The line is valid until the next read.
func (c *CSVReader) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		c.long = append(c.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = c.r.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if len(line) > 0 && errors.Is(err, io.EOF) {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	c.line++
	return line, nil
}

// trimLineEnd drops a line's '\n' and then one '\r', as encoding/csv
// does for every line, the last one included.
func trimLineEnd(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// plainRecord decodes a one-line record with no quote into a new row
// of b, scanning its bytes once: an int64 or float64 cell in the common
// shape accumulates as its digits go by; other cells are cut at their
// comma and go through Batch.cell.
func (c *CSVReader) plainRecord(b *Batch, line []byte) error {
	row := b.row()
	p := 0
	for ai := range c.attrs {
		if ai > 0 {
			if p == len(line) {
				return c.fieldCount(c.line)
			}
			p++ // the comma
		}
		t, ok, end := c.attrs[ai].Type, false, 0
		switch t {
		case storage.Int64:
			row[ai], end, ok = scanInt(line, p)
		case storage.Float64:
			row[ai], end, ok = scanFloat(line, p)
		}
		if !ok {
			end = len(line)
			if i := bytes.IndexByte(line[p:], ','); i >= 0 {
				end = p + i
			}
			w, err := b.cell(t, line[p:end])
			if err != nil {
				// encoding/csv reports a wrong field count before any cell
				// is decoded.
				if bytes.Count(line, []byte{','}) != len(c.attrs)-1 {
					return c.fieldCount(c.line)
				}
				return c.cellError(c.line, ai, err)
			}
			row[ai] = w
		}
		p = end
	}
	if p != len(line) {
		return c.fieldCount(c.line)
	}
	return nil
}

// quotedRecord hands the record starting with line to encoding/csv and
// decodes its fields into a new row of b. While the record's quote count
// is odd, a quoted field is still open, so the next physical line
// belongs to the record too.
func (c *CSVReader) quotedRecord(b *Batch, line []byte) error {
	first := c.line
	c.rec = append(c.rec[:0], line...)
	for q := bytes.Count(line, []byte{'"'}); q%2 == 1; {
		more, err := c.readLine()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("persist: csv: %w", err)
		}
		c.rec = append(c.rec, more...)
		q += bytes.Count(more, []byte{'"'})
	}
	c.recSrc.Reset(c.rec)
	c.recBuf.Reset(&c.recSrc)
	cr := csv.NewReader(c.recBuf) // reuses recBuf: no buffer per record
	cr.FieldsPerRecord = len(c.attrs)
	fields, err := cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) { // number lines in the stream, not in rec
			pe.StartLine += first - 1
			pe.Line += first - 1
		}
		return fmt.Errorf("persist: csv: %w", err)
	}
	row := b.row()
	for ai, f := range fields {
		c.cell = append(c.cell[:0], f...)
		w, err := b.cell(c.attrs[ai].Type, c.cell)
		if err != nil {
			return c.cellError(first, ai, err)
		}
		row[ai] = w
	}
	return nil
}

// fieldCount is the error encoding/csv returns for a record with the
// wrong number of fields.
func (c *CSVReader) fieldCount(line int) error {
	return fmt.Errorf("persist: csv: %w", &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
}

func (c *CSVReader) cellError(line, attr int, err error) error {
	return fmt.Errorf("persist: csv line %d col %q: %w", line, c.attrs[attr].Name, err)
}

// scanInt decodes the int64 cell at line[p:] if it is an optional '-'
// and 1 to 18 digits, ended by a comma or the end of the line; ok is
// false for any other cell, which strconv then decides. It returns the
// cell's word and end.
func scanInt(line []byte, p int) (w storage.Word, end int, ok bool) {
	neg := p < len(line) && line[p] == '-'
	if neg {
		p++
	}
	start := p
	var u uint64
	for ; p < len(line) && p-start <= 18; p++ {
		d := line[p] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	if n := p - start; n == 0 || n > 18 || (p < len(line) && line[p] != ',') {
		return 0, 0, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return storage.EncodeInt(v), p, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanFloat decodes the float64 cell at line[p:] if it is
// [-]digits[.digits] with a mantissa below 2^53 and at most 22 fraction
// digits, ended by a comma or the end of the line. Both the mantissa and
// 10^k are then exact float64s, so one division rounds correctly
// (Clinger's fast path) and the result is bit-identical to
// strconv.ParseFloat's. ok is false for any other cell.
func scanFloat(line []byte, p int) (w storage.Word, end int, ok bool) {
	neg := p < len(line) && line[p] == '-'
	if neg {
		p++
	}
	var m uint64
	digits, dot := 0, -1 // dot: digits before the '.', -1 without one
	for ; p < len(line); p++ {
		ch := line[p]
		if d := ch - '0'; d <= 9 {
			if digits == 19 { // past what a uint64 holds
				return 0, 0, false
			}
			m = m*10 + uint64(d)
			digits++
			continue
		}
		if ch != '.' || dot >= 0 {
			break
		}
		dot = digits
	}
	if digits == 0 || m >= 1<<53 || (p < len(line) && line[p] != ',') {
		return 0, 0, false
	}
	k := 0
	if dot >= 0 {
		if k = digits - dot; dot == 0 || k == 0 || k >= len(pow10) {
			return 0, 0, false
		}
	}
	f := float64(m) / pow10[k]
	if neg {
		f = -f
	}
	return storage.EncodeFloat(f), p, true
}

// NDJSONReader streams newline-delimited JSON arrays, one row per line:
// [1, "a", 2.5, null]. Numbers keep their literal text (json.Number), so
// float values round-trip exactly; null becomes the NULL word. Every
// other value is decoded from its text like a CSV cell.
type NDJSONReader struct {
	sc    *bufio.Scanner
	attrs []storage.Attribute
	line  int
	cell  []byte
	free  chan *Batch
}

// NewNDJSONReader reads JSON array lines of the given attributes from r.
func NewNDJSONReader(r io.Reader, attrs []storage.Attribute) *NDJSONReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return &NDJSONReader{sc: sc, attrs: attrs, free: newFreeList()}
}

// ReadBatch implements BatchReader.
func (n *NDJSONReader) ReadBatch(max int) (*Batch, error) {
	b := newBatch(n.free, len(n.attrs), max)
	for !b.full() {
		if !n.sc.Scan() {
			if err := n.sc.Err(); err != nil {
				return nil, fmt.Errorf("persist: ndjson: %w", err)
			}
			break
		}
		n.line++
		line := bytes.TrimSpace(n.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := n.record(b, line); err != nil {
			return nil, err
		}
	}
	if len(b.Words) == 0 {
		return nil, io.EOF
	}
	return b, nil
}

// record decodes one JSON array line into a new row of b.
func (n *NDJSONReader) record(b *Batch, line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var vals []any
	if err := dec.Decode(&vals); err != nil {
		return fmt.Errorf("persist: ndjson line %d: %w", n.line, err)
	}
	if len(vals) != len(n.attrs) {
		return fmt.Errorf("persist: ndjson line %d: %d values, want %d", n.line, len(vals), len(n.attrs))
	}
	row := b.row()
	for i, v := range vals {
		switch t := v.(type) {
		case nil:
			row[i] = storage.Null
			continue
		case json.Number:
			n.cell = append(n.cell[:0], t...)
		case string:
			n.cell = append(n.cell[:0], t...)
		case bool:
			n.cell = strconv.AppendBool(n.cell[:0], t)
		default:
			return fmt.Errorf("persist: ndjson line %d col %d: unsupported value %v", n.line, i, v)
		}
		w, err := b.cell(n.attrs[i].Type, n.cell)
		if err != nil {
			return fmt.Errorf("persist: ndjson line %d col %q: %w", n.line, n.attrs[i].Name, err)
		}
		row[i] = w
	}
	return nil
}

// EncodeRows replaces b's string cells with codes of rel's dictionaries,
// in place. It reads the dictionaries but never changes them: string
// values a dictionary lacks come back in grown[attr], in the order of
// the codes the rows now carry (a column's first new value is coded
// Dicts[attr].Len(), or 0 without a dictionary), for the caller to
// append — after logging them — before the rows are published. grown is
// nil when no column grew. Grown values are copies, so b can be
// released.
func EncodeRows(rel *storage.Relation, b *Batch) (grown [][]string) {
	attrs := rel.Schema.Attrs
	if b.width != len(attrs) {
		panic(fmt.Sprintf("persist: batch of width %d for %d-attribute table %s", b.width, len(attrs), rel.Schema.Name))
	}
	for ai, a := range attrs {
		if a.Type != storage.String {
			continue
		}
		d := rel.Dicts[ai]
		if d == nil {
			grown = encodeColumn(b, ai, 0, nil, grown)
			continue
		}
		d.Lookup(func(code func([]byte) (storage.Word, bool)) {
			grown = encodeColumn(b, ai, d.Len(), code, grown)
		})
	}
	return grown
}

// encodeColumn is EncodeRows for column ai of b: a cell whose value code
// finds takes that code (code is nil for a column without a dictionary),
// and each value it does not find is staged in grown[ai], coded from base
// on.
func encodeColumn(b *Batch, ai, base int, code func([]byte) (storage.Word, bool), grown [][]string) [][]string {
	var staged map[string]storage.Word // new value -> code
	for i := ai; i < len(b.Words); i += b.width {
		if b.Words[i] == storage.Null {
			continue
		}
		text := b.Str(b.Words[i])
		if code != nil {
			if c, ok := code(text); ok {
				b.Words[i] = c
				continue
			}
		}
		c, ok := staged[string(text)]
		if !ok {
			if grown == nil {
				grown = make([][]string, b.width)
			}
			if staged == nil {
				staged = map[string]storage.Word{}
			}
			v := string(text)
			c = storage.Word(base + len(grown[ai]))
			staged[v] = c
			grown[ai] = append(grown[ai], v)
		}
		b.Words[i] = c
	}
	return grown
}

// ParseSchemaSpec parses a "name:type,name:type" column specification
// (types: int64, float64, string, bool) into schema attributes — the
// create-table syntax of the bulk-load endpoint.
func ParseSchemaSpec(spec string) ([]storage.Attribute, error) {
	if spec == "" {
		return nil, errors.New("persist: empty schema spec")
	}
	parts := strings.Split(spec, ",")
	attrs := make([]storage.Attribute, 0, len(parts))
	seen := map[string]bool{}
	for _, p := range parts {
		name, typ, ok := strings.Cut(strings.TrimSpace(p), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("persist: schema spec %q: want name:type", p)
		}
		if seen[name] {
			return nil, fmt.Errorf("persist: schema spec: duplicate column %q", name)
		}
		seen[name] = true
		var t storage.Type
		switch typ {
		case "int64", "int":
			t = storage.Int64
		case "float64", "float":
			t = storage.Float64
		case "string":
			t = storage.String
		case "bool":
			t = storage.Bool
		default:
			return nil, fmt.Errorf("persist: schema spec: unknown type %q for column %q", typ, name)
		}
		attrs = append(attrs, storage.Attribute{Name: name, Type: t})
	}
	return attrs, nil
}
