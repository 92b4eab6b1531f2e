package persist

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/exec/par"
	"repro/internal/jsonx"
	"repro/internal/storage"
)

// Streaming bulk ingestion in two steps. A BlockReader turns a byte
// stream into Batches for one schema: flat word rows, every numeric and
// bool cell decoded into its word as the parser scans the record, with
// no allocation per row or per cell. EncodeRows then maps a batch's
// string cells to dictionary codes. The steps are split so a caller can
// read outside its catalog lock and encode inside it; the dictionary
// growth a batch needs is returned rather than applied, so the caller
// can log it before it touches shared state. A caller done with a batch
// releases it, and the reader's later batches reuse its buffers, so a
// load's garbage does not grow with its size.

// Batch is a run of rows read from an ingest stream: Words holds Rows()
// rows of schema-width words, row-major in schema attribute order. A
// NULL cell of any type is storage.Null. Any other string cell's word
// numbers the cell among the batch's string cells, whose text Str
// returns, until EncodeRows replaces it with a dictionary code.
type Batch struct {
	Words  []storage.Word
	text   []byte // the string cells' text, back to back
	ends   []int  // end offset in text of each string cell
	width  int
	stream int         // see StreamRows
	free   chan *Batch // its reader's released batches
}

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
	b.Words, b.text, b.ends, b.width, b.stream = b.Words[:0], b.text[:0], b.ends[:0], width, 0
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

// StreamRows is, on the first batch of a stream that reported its
// length, an estimate of the rows the whole stream holds, rounded up by
// a sixteenth so that it errs high; it is 0 on every other batch. A
// table can then be grown once for the whole load.
func (b *Batch) StreamRows() int { return b.stream }

// Str returns the text of the string cell numbered w. It aliases the
// batch.
func (b *Batch) Str(w storage.Word) []byte {
	start := 0
	if w > 0 {
		start = b.ends[w-1]
	}
	return b.text[start:b.ends[w]]
}

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

// BlockReader is the one ingest driver, for both formats. The caller's
// goroutine reads the stream in blocks and cuts what it has read after
// every max-th record, so that each piece holds exactly the records of
// one batch (the stream's last piece may hold fewer). The pieces are
// then parsed as morsels on the workers of SetParOptions (serially
// without), each by its worker's parser seeded with the piece's first
// line number. Batches, their boundaries and their errors therefore come
// out as one pass over the stream gives them, at any worker count; they
// are handed out in stream order, and the first piece that fails to
// parse ends the stream with its error.
//
// A block is whatever the reads since the last cut delivered: as soon as
// a read completes at least one batch, the whole batches are parsed, so
// a stream that stalls still yields every batch it has sent. Once the
// first piece is cut, the buffer grows to hold BlockBatches pieces of its
// size, so a stream that delivers as much as is asked (a file, a byte
// slice) gives every worker several pieces per block.
type BlockReader struct {
	r       io.Reader
	format  string // "csv" or "ndjson"
	attrs   []storage.Attribute
	opt     par.Options
	parsers []parser    // one per worker
	free    chan *Batch // released batches, shared by the workers
	left    int         // the stream's unread length when it reports one, else -1

	buf    []byte // read and not yet parsed; buf[:scan] is whole lines
	scan   int
	seek   int     // buf[scan:seek] holds no '\n': a long line's reads are searched once
	line   int     // lines before buf[0]
	lines  int     // lines in buf[:scan]
	recs   int     // records in buf[:scan] after the last cut
	quotes int     // CSV: the quotes of a record still open at scan, else 0
	cuts   []piece // the whole batches in buf[:scan]
	read   int     // bytes of the stream before buf[0]
	block  int     // the buffer's size once the first piece is cut

	ready []parsed // the last block's batches, in stream order
	next  int      // the first of ready not yet handed out
	err   error    // ends the stream once ready is handed out
}

// piece is a run of whole records in a BlockReader's buffer: buf[:end]
// from the previous piece's end, after lines lines of buf.
type piece struct{ end, lines int }

// parsed is one piece's outcome: its batch, or the error that stopped it.
type parsed struct {
	b   *Batch
	err error
}

// parser decodes pieces of one format into batches. A parser belongs to
// one worker at a time.
type parser interface {
	// parse decodes every record of data, whose first line is the
	// stream's line+1, into new rows of b.
	parse(b *Batch, data []byte, line int) error
}

// Block sizes: the first read asks for firstBlock bytes, or the stream's
// length when it reports a shorter one; every later block holds
// BlockBatches pieces the size of the first.
const firstBlock = 1 << 20

// BlockBatches is how many batches a BlockReader aims to cut from each
// block on opt's workers: four per worker, so that the pieces balance
// across them. A consumer that queues this many batches keeps the next
// block's parse going while it works through the last one's.
func BlockBatches(opt par.Options) int { return 4 * opt.WorkerCount() }

// NewCSVReader reads CSV rows of the given attributes from r, in the
// dialect of encoding/csv's defaults: empty lines are skipped, a "\r\n"
// line end counts as "\n", and a record must have one field per
// attribute. Empty cells are NULL for non-string columns; there is no
// quoting convention for NULL strings. A quoted field may span lines; a
// record's quote count tells where it ends, as it does for encoding/csv.
func NewCSVReader(r io.Reader, attrs []storage.Attribute) *BlockReader {
	return newBlockReader(r, "csv", attrs)
}

// NewNDJSONReader reads newline-delimited JSON arrays of the given
// attributes from r, one row per line and nothing after it: [1, "a", 2.5,
// null]. Blank lines are skipped. null becomes the NULL word; any other
// value's text (a number's literal, a string's decoded bytes, true or
// false) is decoded like a CSV cell, so float values round-trip exactly.
func NewNDJSONReader(r io.Reader, attrs []storage.Attribute) *BlockReader {
	return newBlockReader(r, "ndjson", attrs)
}

func newBlockReader(r io.Reader, format string, attrs []storage.Attribute) *BlockReader {
	d := &BlockReader{r: r, format: format, attrs: attrs, left: -1}
	if l, ok := r.(interface{ Len() int }); ok {
		d.left = l.Len()
	}
	return d
}

// newParser returns a parser of the reader's format for one worker.
func (d *BlockReader) newParser() parser {
	if d.format == "ndjson" {
		return &ndjsonParser{attrs: d.attrs}
	}
	return newCSVParser(d.attrs)
}

// SetParOptions parses each block's pieces as morsels on opt's workers.
// It must be called before the first ReadBatch.
func (d *BlockReader) SetParOptions(opt par.Options) { d.opt = opt }

// ReadBatch implements BatchReader. max is read when a block is cut, so a
// caller keeps it the same for a whole stream.
func (d *BlockReader) ReadBatch(max int) (*Batch, error) {
	for d.next == len(d.ready) {
		if d.err != nil {
			return nil, d.err
		}
		d.readBlock(max)
	}
	p := d.ready[d.next]
	d.ready[d.next] = parsed{}
	d.next++
	if p.err != nil {
		for _, q := range d.ready[d.next:] {
			if q.b != nil {
				q.b.Release()
			}
		}
		d.ready, d.next, d.err = nil, 0, p.err
		return nil, p.err
	}
	return p.b, nil
}

// readBlock reads until the reads since the last cut complete at least
// one batch or the stream ends, then parses every whole batch read (and,
// at the end, the rest).
func (d *BlockReader) readBlock(batchRows int) {
	if d.buf == nil {
		size := firstBlock
		if d.left >= 0 && d.left < size {
			size = d.left + 1 // room to see the end without a second buffer
		}
		d.buf = make([]byte, 0, size)
		d.parsers = make([]parser, d.opt.WorkerCount())
		// The batches a load holds at once: a block being parsed, a
		// block queued for the committer, the committer's held and
		// committing batches, and one in hand.
		d.free = make(chan *Batch, 2*BlockBatches(d.opt)+3)
	}
	for empty := 0; ; {
		if len(d.buf) == cap(d.buf) {
			d.buf = slices.Grow(d.buf, cap(d.buf)) // a batch longer than the buffer
		}
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		if empty++; n > 0 || err != nil {
			empty = 0
		} else if empty == 100 { // as bufio gives up on a reader
			err = io.ErrNoProgress
		}
		d.buf = d.buf[:len(d.buf)+n]
		d.cut(batchRows)
		switch {
		case errors.Is(err, io.EOF):
			if d.scan = len(d.buf); d.scan > d.end() {
				d.cuts = append(d.cuts, piece{end: d.scan, lines: d.lines})
			}
			d.err = io.EOF
		case err != nil:
			d.err = fmt.Errorf("persist: %s: %w", d.format, err)
		case len(d.cuts) == 0:
			continue
		}
		d.parse(batchRows)
		return
	}
}

// end is where the last cut piece ends in buf.
func (d *BlockReader) end() int {
	if len(d.cuts) == 0 {
		return 0
	}
	return d.cuts[len(d.cuts)-1].end
}

// cut counts the whole lines read since the last call and cuts a piece
// after every batchRows-th record.
func (d *BlockReader) cut(batchRows int) {
	for {
		from := max(d.scan, d.seek)
		i := bytes.IndexByte(d.buf[from:], '\n')
		if i < 0 {
			d.seek = len(d.buf)
			return
		}
		line := d.buf[d.scan : from+i+1]
		d.scan = from + i + 1
		d.lines++
		if d.endsRecord(line) {
			if d.recs++; d.recs == batchRows {
				d.cuts = append(d.cuts, piece{end: d.scan, lines: d.lines})
				d.recs = 0
			}
		}
	}
}

// endsRecord reports whether line ends a record, as the format's parser
// reads it: CSV skips an empty line and runs a record on while its quote
// count is odd; NDJSON skips a blank line.
func (d *BlockReader) endsRecord(line []byte) bool {
	if d.format == "ndjson" {
		return len(bytes.TrimSpace(line)) > 0
	}
	if d.quotes == 0 && bytes.IndexByte(line, '"') < 0 {
		return len(trimLineEnd(line)) > 0
	}
	if d.quotes += bytes.Count(line, []byte{'"'}); d.quotes%2 == 1 {
		return false
	}
	d.quotes = 0
	return true
}

// parse decodes the cut pieces into ready as morsels on the reader's
// workers, then moves the bytes after the last piece to the front of the
// buffer. A last piece of blank lines yields no batch.
func (d *BlockReader) parse(batchRows int) {
	cuts := d.cuts
	d.ready, d.next = make([]parsed, len(cuts)), 0
	par.Run(len(cuts), par.Options{Pool: d.opt.Pool, MorselRows: 1}, func(w, m, _, _ int) {
		start, line := 0, d.line
		if m > 0 {
			start, line = cuts[m-1].end, d.line+cuts[m-1].lines
		}
		if d.parsers[w] == nil {
			d.parsers[w] = d.newParser()
		}
		b := newBatch(d.free, len(d.attrs), batchRows)
		if err := d.parsers[w].parse(b, d.buf[start:cuts[m].end], line); err != nil {
			b.Release()
			d.ready[m].err = err
			return
		}
		d.ready[m].b = b
	})
	if last := len(d.ready) - 1; last >= 0 && d.ready[last].b != nil && d.ready[last].b.Rows() == 0 {
		d.ready[last].b.Release()
		d.ready = d.ready[:last]
	}

	var end, lines int
	if n := len(cuts); n > 0 {
		end, lines = cuts[n-1].end, cuts[n-1].lines
		if d.read == 0 {
			d.first(cuts[0].end, batchRows)
		}
	}
	rest, buf := d.buf[end:], d.buf
	if size := d.block; cap(buf) < size && d.err == nil {
		if d.left >= 0 { // no more than the rest of the stream
			size = min(size, d.left-d.read-end+1)
		}
		buf = make([]byte, 0, max(size, len(rest)+1))
	}
	d.buf = buf[:copy(buf[:len(rest)], rest)]
	d.read += end
	d.scan -= end
	d.seek = max(d.seek-end, d.scan)
	d.line += lines
	d.lines -= lines
	d.cuts = d.cuts[:0]
}

// first sizes later blocks from the stream's first piece, of size bytes,
// and gives the stream's first batch its StreamRows: the rows of every
// batch when this block holds the whole stream, else an estimate from
// the first piece's bytes per record.
func (d *BlockReader) first(size, batchRows int) {
	d.block = BlockBatches(d.opt) * size
	if d.left <= 0 || len(d.ready) == 0 || d.ready[0].b == nil {
		return
	}
	rows := 0
	if errors.Is(d.err, io.EOF) {
		for _, p := range d.ready {
			if p.b != nil {
				rows += p.b.Rows()
			}
		}
	} else {
		rows = int(int64(d.left) * int64(batchRows) / int64(size))
		rows += rows / 16
	}
	d.ready[0].b.stream = rows
}

// csvParser decodes CSV pieces. A record without a '"' is split and
// decoded in one pass over its bytes. A record with one is handed whole
// to encoding/csv, the only parser of quoted fields.
type csvParser struct {
	attrs  []storage.Attribute
	rest   []byte // the piece's lines not yet read
	line   int    // lines read
	cell   []byte // a quoted record's field
	recSrc bytes.Reader
	recBuf *bufio.Reader // buffers recSrc for encoding/csv
}

func newCSVParser(attrs []storage.Attribute) *csvParser {
	c := &csvParser{attrs: attrs}
	c.recBuf = bufio.NewReader(&c.recSrc)
	return c
}

func (c *csvParser) parse(b *Batch, data []byte, line int) error {
	c.rest, c.line = data, line
	quoted := bytes.IndexByte(data, '"') >= 0
	for len(c.rest) > 0 {
		var err error
		line := c.readLine()
		if quoted && bytes.IndexByte(line, '"') >= 0 {
			err = c.quotedRecord(b, line)
		} else if line = trimLineEnd(line); len(line) > 0 {
			err = c.plainRecord(b, line)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readLine returns the piece's next line, '\n' included unless the
// stream ends without one. The line aliases the piece, and its capacity
// runs at least to the piece's end, so a record's lines can be resliced
// from its first.
func (c *csvParser) readLine() []byte {
	line := c.rest
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i+1]
	}
	c.rest = c.rest[len(line):]
	c.line++
	return line
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
func (c *csvParser) plainRecord(b *Batch, line []byte) error {
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
// is odd, a quoted field is still open, so the next line belongs to the
// record too.
func (c *csvParser) quotedRecord(b *Batch, line []byte) error {
	first, n := c.line, len(line)
	for q := bytes.Count(line, []byte{'"'}); q%2 == 1 && len(c.rest) > 0; {
		more := c.readLine()
		n += len(more)
		q += bytes.Count(more, []byte{'"'})
	}
	c.recSrc.Reset(line[:n])
	c.recBuf.Reset(&c.recSrc)
	cr := csv.NewReader(c.recBuf) // reuses recBuf: no buffer per record
	cr.FieldsPerRecord = len(c.attrs)
	fields, err := cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) { // number lines in the stream, not in the record
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
func (c *csvParser) fieldCount(line int) error {
	return fmt.Errorf("persist: csv: %w", &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
}

func (c *csvParser) cellError(line, attr int, err error) error {
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

// ndjsonParser decodes NDJSON pieces.
type ndjsonParser struct {
	attrs []storage.Attribute
	line  int // lines read
}

func (n *ndjsonParser) parse(b *Batch, data []byte, line int) error {
	n.line = line
	for line := range bytes.Lines(data) {
		n.line++
		if line = bytes.TrimSpace(line); len(line) > 0 {
			if err := n.record(b, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// record decodes one JSON array line into a new row of b. A malformed
// line is reported before a wrong value count, and that before a bad cell.
func (n *ndjsonParser) record(b *Batch, line []byte) error {
	s := jsonx.Scanner{Data: line}
	row, k := b.row(), 0
	var cellErr error
	ok := s.Consume('[')
	for first := true; ok; first, k = false, k+1 {
		var more bool
		if more, ok = s.More(first, ']'); !ok || !more {
			break
		}
		var text []byte
		null := false
		switch s.Peek() {
		case '"':
			text, ok = s.String()
		case 't', 'f':
			start := s.Pos
			_, ok = s.Bool()
			text = line[start:s.Pos]
		case 'n':
			ok, null = s.Literal("null"), true
		default:
			text, ok = s.Number()
		}
		switch {
		case !ok || k >= len(n.attrs):
		case null:
			row[k] = storage.Null
		default:
			w, err := b.cell(n.attrs[k].Type, text)
			if err != nil && cellErr == nil {
				cellErr = fmt.Errorf("persist: ndjson line %d col %q: %w", n.line, n.attrs[k].Name, err)
			}
			row[k] = w
		}
	}
	switch {
	case !ok || !s.End():
		return fmt.Errorf("persist: ndjson line %d: want one JSON array of scalars, malformed near byte %d", n.line, s.Pos)
	case k != len(n.attrs):
		return fmt.Errorf("persist: ndjson line %d: %d values, want %d", n.line, k, len(n.attrs))
	}
	return cellErr
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
