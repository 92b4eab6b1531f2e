package service

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/persist"
	"repro/internal/storage"
)

// pipelineSpec is the schema of mixedRows: every column type, NULLs, and
// a string column whose dictionary grows in every batch.
const pipelineSpec = "id:int64,grp:int64,kind:string,price:float64,ok:bool"

// mixedRows returns n rows of pipelineSpec as text fields, "" for NULL.
// kind takes a fresh value every 1,000 rows and repeats older ones in
// between, so each batch both reuses and grows the dictionary.
func mixedRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		kind := i / 1000
		if i%3 == 0 {
			kind /= 2
		}
		grp, price := fmt.Sprint(i%7), fmt.Sprintf("%d.%02d", i%1000, i%100)
		if i%11 == 0 {
			grp, price = "", ""
		}
		rows[i] = []string{fmt.Sprint(i), grp, fmt.Sprintf("k%d", kind), price, fmt.Sprint(i%2 == 0)}
	}
	return rows
}

func mixedCSV(rows [][]string) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func mixedNDJSON(rows [][]string) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteByte('[')
		for i, f := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			switch {
			case f == "":
				b.WriteString("null")
			case i == 2:
				fmt.Fprintf(&b, "%q", f)
			default:
				b.WriteString(f)
			}
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// snapshotBytes serializes s's catalog.
func snapshotBytes(t *testing.T, s *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := persist.WriteCatalogSnapshot(&buf, s.Unwrap().Catalog(), 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadPipelineMatchesSerial loads one multi-batch stream through the
// pipelined Load and through a serial loop of applyLoadBatch. Commits
// run in stream order, so dictionary codes, rows and layouts must come
// out byte-identical.
func TestLoadPipelineMatchesSerial(t *testing.T) {
	rows := mixedRows(3*loadBatchRows + 517)
	for _, c := range []struct {
		format, data string
		reader       func(io.Reader, []storage.Attribute) persist.BatchReader
	}{
		{"csv", mixedCSV(rows), func(r io.Reader, a []storage.Attribute) persist.BatchReader { return persist.NewCSVReader(r, a) }},
		{"ndjson", mixedNDJSON(rows), func(r io.Reader, a []storage.Attribute) persist.BatchReader {
			return persist.NewNDJSONReader(r, a)
		}},
	} {
		t.Run(c.format, func(t *testing.T) {
			spec := LoadSpec{Table: "ev", Format: c.format, CreateSpec: pipelineSpec}

			piped := New(core.Open(), Config{Workers: 1})
			defer piped.Close()
			res, err := piped.Load(spec, strings.NewReader(c.data))
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != len(rows) {
				t.Fatalf("pipelined load reports %d rows, want %d", res.Rows, len(rows))
			}

			serial := New(core.Open(), Config{Workers: 1})
			defer serial.Close()
			attrs, _, err := serial.loadTarget(spec)
			if err != nil {
				t.Fatal(err)
			}
			br := c.reader(strings.NewReader(c.data), attrs)
			var batches []*persist.Batch
			for {
				b, err := br.ReadBatch(loadBatchRows)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				batches = append(batches, b)
			}
			loaded := 0
			for i, b := range batches {
				if err := serial.applyLoadBatch(spec.Table, b, i == len(batches)-1, loaded, ""); err != nil {
					t.Fatal(err)
				}
				loaded += b.Rows()
			}

			if dict := piped.Unwrap().Table("ev").Dicts[2].Len(); dict < 4 {
				t.Fatalf("kind dictionary holds %d values; the stream must grow it in several batches", dict)
			}
			if !bytes.Equal(snapshotBytes(t, piped), snapshotBytes(t, serial)) {
				t.Fatal("pipelined load differs from the serial reference")
			}
		})
	}
}

// signalReader closes full once every byte of its input has been read.
type signalReader struct {
	r    *strings.Reader
	full chan struct{}
}

func (s *signalReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if s.r.Len() == 0 && s.full != nil {
		close(s.full)
		s.full = nil
	}
	return n, err
}

// TestLoadParseErrorWhileBatchCommits holds batch 2's WAL commit until
// the reader has consumed the whole stream, whose third batch is
// malformed. Load must return the parse error, and count and publish
// exactly the two batches that committed.
func TestLoadParseErrorWhileBatchCommits(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	defer mgr.Close()
	defer s.Close()

	in := &signalReader{
		r:    strings.NewReader(csvRows(0, 2*loadBatchRows) + "1,2,3\n"),
		full: make(chan struct{}),
	}
	full := in.full
	commits := 0
	t.Cleanup(faultinject.Enable("persist/wal-commit", func() error {
		// commit 1 creates the table, 2 and 3 are the batches
		if commits++; commits == 3 {
			select {
			case <-full:
			case <-time.After(10 * time.Second):
				return errors.New("reader never reached the malformed batch")
			}
		}
		return nil
	}))
	res, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,grp:int64"}, in)
	if !errors.Is(err, csv.ErrFieldCount) {
		t.Fatalf("load: %v, want the csv field-count error", err)
	}
	if res.Rows != 2*loadBatchRows {
		t.Fatalf("load reports %d rows, want %d", res.Rows, 2*loadBatchRows)
	}
	if got := s.Unwrap().Table("ev").Rows(); got != 2*loadBatchRows {
		t.Fatalf("table holds %d rows, want %d", got, 2*loadBatchRows)
	}
}

// TestLoadCommitterPanicReachesCaller panics inside a batch's WAL commit
// during a durable load. The panic must come back on Load's goroutine,
// and the service must take the next load.
func TestLoadCommitterPanicReachesCaller(t *testing.T) {
	s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
	defer mgr.Close()
	defer s.Close()

	commits := 0
	disarm := faultinject.Enable("persist/wal-commit", func() error {
		if commits++; commits == 3 {
			panic("injected: commit panic")
		}
		return nil
	})
	t.Cleanup(disarm)
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,grp:int64"},
			strings.NewReader(csvRows(0, 3*loadBatchRows)))
		return nil
	}()
	if got != "injected: commit panic" {
		t.Fatalf("Load's goroutine recovered %v, want the committer's panic", got)
	}
	disarm()

	if got := s.Unwrap().Table("ev").Rows(); got != loadBatchRows {
		t.Fatalf("table holds %d rows, want the %d committed before the panic", got, loadBatchRows)
	}
	res, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader(csvRows(0, 10)))
	if err != nil || res.Rows != 10 {
		t.Fatalf("load after the panic: %+v, %v", res, err)
	}
}

// fenceReader fences s once more than `after` bytes have been read.
type fenceReader struct {
	r     io.Reader
	s     *DB
	after int
}

func (f *fenceReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if f.after -= n; f.after < 0 && f.s != nil {
		f.s.Fence(2, "")
		f.s = nil
	}
	return n, err
}

// TestLoadLeavesNoGoroutine checks that no committer outlives Load, for
// a load that succeeds, one fenced mid-stream, one whose batch fails to
// encode and one whose commit panics.
func TestLoadLeavesNoGoroutine(t *testing.T) {
	data := csvRows(0, 3*loadBatchRows)
	for _, c := range []struct {
		name string
		load func(s *DB) error
	}{
		{"success", func(s *DB) error {
			_, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader(data))
			return err
		}},
		{"fenced", func(s *DB) error {
			_, err := s.Load(LoadSpec{Table: "ev", Format: "csv"},
				&fenceReader{r: strings.NewReader(data), s: s, after: len(data) / 2})
			if !errors.Is(err, ErrFenced) {
				return fmt.Errorf("fenced load: %v, want ErrFenced", err)
			}
			return nil
		}},
		{"failed", func(s *DB) error {
			_, err := s.Load(LoadSpec{Table: "ev", Format: "csv"},
				strings.NewReader(csvRows(0, loadBatchRows)+"x,1\n"+data))
			if err == nil {
				return errors.New("malformed batch accepted")
			}
			return nil
		}},
		{"panicked", func(s *DB) (err error) {
			commits := 0
			disarm := faultinject.Enable("persist/wal-commit", func() error {
				if commits++; commits == 2 {
					panic("injected: commit panic")
				}
				return nil
			})
			defer disarm()
			defer func() {
				if recover() == nil {
					err = errors.New("commit panic did not reach Load's caller")
				}
			}()
			s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader(data))
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, mgr := openPersistent(t, t.TempDir(), Config{Workers: 1})
			defer mgr.Close()
			defer s.Close()
			if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: "id:int64,grp:int64"},
				strings.NewReader("")); err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			if err := c.load(s); err != nil {
				t.Fatal(err)
			}
			// The committer has exited when Load returns but may not yet be
			// off the scheduler's books; a leaked one would never leave.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the load, %d before", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// TestLoadLeavesNoSlack loads 3.1 batches into a row and a column table.
// AppendRows doubles a partition's capacity when it grows; the last
// batch's write must clip every partition to its length. A small load
// into the loaded table then keeps the doubled capacity: clipping it
// would copy the whole table for a few rows.
func TestLoadLeavesNoSlack(t *testing.T) {
	rows := mixedRows(3*loadBatchRows + loadBatchRows/10)
	for _, layout := range []string{"row", "column"} {
		t.Run(layout, func(t *testing.T) {
			s := New(core.Open(), Config{Workers: 1})
			defer s.Close()
			res, err := s.Load(LoadSpec{Table: "ev", Format: "csv", CreateSpec: pipelineSpec, Layout: layout},
				strings.NewReader(mixedCSV(rows)))
			if err != nil || res.Rows != len(rows) {
				t.Fatalf("load: %+v, %v", res, err)
			}
			for i, p := range s.Unwrap().Table("ev").Parts {
				if cap(p.Data) != len(p.Data) {
					t.Errorf("partition %d: capacity %d for %d words", i, cap(p.Data), len(p.Data))
				}
			}

			if _, err := s.Load(LoadSpec{Table: "ev", Format: "csv"}, strings.NewReader(mixedCSV(rows[:10]))); err != nil {
				t.Fatal(err)
			}
			for i, p := range s.Unwrap().Table("ev").Parts {
				if want := 2 * (len(p.Data) - 10*p.Stride); cap(p.Data) != want {
					t.Errorf("after a 10-row load, partition %d: capacity %d, want %d", i, cap(p.Data), want)
				}
			}
		})
	}
}

// chunkReader hands out at most n bytes a Read and hides its input's
// length, as a network body does.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// TestLoadParallelMatchesSerial loads each stream on services whose pools
// have 1, 2 and 4 workers, through readers of different read sizes. The
// block reader cuts what it reads into whole batches and parses them on
// the pool, so every load must publish a byte-identical catalog and
// report the same rows and error text as the one-worker load of the
// whole stream. The CSV streams cross the reader's first block (1 MiB)
// and carry quoted fields spanning lines, blank lines and CRLF line
// ends; one stream is NDJSON with blank lines; four carry a bad cell in the first record of a batch, one of
// them the first batch after the block's edge, which must name its line
// and leave exactly the batches before it.
func TestLoadParallelMatchesSerial(t *testing.T) {
	const batches = 12
	rows := mixedRows(batches*loadBatchRows + 301)

	quoted := make([][]string, len(rows))
	for i, row := range rows {
		quoted[i] = row
		if i%97 == 5 {
			quoted[i] = slices.Clone(row)
			quoted[i][2] = fmt.Sprintf("\"k%d\nspans \"\"lines\"\"\"", i%13)
		}
	}
	var crlf strings.Builder
	for i, row := range rows {
		if i%50 == 0 {
			crlf.WriteString("\r\n\n")
		}
		crlf.WriteString(strings.Join(row, ","))
		crlf.WriteString("\r\n")
	}
	var ndjson strings.Builder
	ndRows := 4*loadBatchRows + 17 // decoding JSON is slow; 4,099-byte reads cross many blocks
	for i, line := range strings.SplitAfter(mixedNDJSON(rows[:ndRows]), "\n") {
		if i%77 == 0 {
			ndjson.WriteString("  \n")
		}
		ndjson.WriteString(line)
	}

	type stream struct {
		name, format, data string
		chunks             []int // read sizes besides the whole stream's
		wantErr            string
		wantRows           int
	}
	streams := []stream{
		{"quoted", "csv", mixedCSV(quoted), []int{65537}, "", len(rows)},
		{"quoted-trickle", "csv", mixedCSV(quoted[:3*loadBatchRows+17]), []int{7}, "", 3*loadBatchRows + 17},
		{"crlf-blank", "csv", crlf.String(), []int{65537}, "", len(rows)},
		{"ndjson", "ndjson", ndjson.String(), []int{4099}, "", ndRows},
		{"short", "csv", mixedCSV(rows[:100]), []int{7}, "", 100},
	}
	// The batches whose first record the bad cell sits in: the first two,
	// the one the first block's edge cuts through, and the next.
	edge := strings.Count(mixedCSV(rows)[:1<<20], "\n") / loadBatchRows
	for _, b := range []int{0, 1, edge, edge + 1} {
		bad := slices.Clone(rows)
		bad[b*loadBatchRows] = slices.Clone(bad[b*loadBatchRows])
		bad[b*loadBatchRows][0] = "x1"
		streams = append(streams, stream{fmt.Sprintf("bad-cell-batch-%d", b), "csv", mixedCSV(bad), nil,
			fmt.Sprintf(`persist: csv line %d col "id": `, b*loadBatchRows+1), b * loadBatchRows})
	}

	type outcome struct {
		res  LoadResult
		err  string
		snap []byte
	}
	load := func(t *testing.T, workers int, format string, r io.Reader) outcome {
		s := New(core.Open(), Config{Workers: workers})
		defer s.Close()
		res, err := s.Load(LoadSpec{Table: "ev", Format: format, CreateSpec: pipelineSpec}, r)
		o := outcome{res: res, snap: snapshotBytes(t, s)}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			want := load(t, 1, st.format, strings.NewReader(st.data))
			if !strings.HasPrefix(want.err, st.wantErr) || (st.wantErr == "") != (want.err == "") {
				t.Fatalf("load error %q, want it to start %q", want.err, st.wantErr)
			}
			if want.res.Rows != st.wantRows {
				t.Fatalf("load reports %d rows, want %d", want.res.Rows, st.wantRows)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, chunk := range append([]int{0}, st.chunks...) {
					if workers == 1 && chunk == 0 {
						continue
					}
					var r io.Reader = strings.NewReader(st.data)
					if chunk > 0 {
						r = &chunkReader{r: r, n: chunk}
					}
					got := load(t, workers, st.format, r)
					if got.res != want.res || got.err != want.err || !bytes.Equal(got.snap, want.snap) {
						t.Fatalf("workers=%d reads of %d bytes: %+v, error %q; one worker: %+v, error %q; catalogs equal: %v",
							workers, chunk, got.res, got.err, want.res, want.err, bytes.Equal(got.snap, want.snap))
					}
				}
			}
		})
	}
}
