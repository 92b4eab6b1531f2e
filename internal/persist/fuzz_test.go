package persist

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

// FuzzDecodeSnapshot asserts the snapshot decoder's contract on
// arbitrary input: it never panics, and every rejection is one of the
// named sentinel errors — corrupt headers, checksums and structures get
// diagnosable failures, not crashes.
func FuzzDecodeSnapshot(f *testing.F) {
	db := buildTestDB(f, 60)
	var buf bytes.Buffer
	if _, err := WriteCatalogSnapshot(&buf, db.Catalog(), 0); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:16])
	f.Add(good[:len(good)-3])
	f.Add([]byte("PDSMSNP1"))
	f.Add([]byte{})
	// A few deterministic corruptions as seeds.
	for _, off := range []int{0, 8, 12, 20, len(good) / 2, len(good) - 1} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x55
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err == nil {
			// Accepted input must be well-formed enough to re-encode.
			for _, tab := range snap.Tables {
				_ = encodeTable(tab)
			}
			return
		}
		for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrChecksum, ErrTruncated, ErrCorrupt} {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("decode error %v is not a named sentinel", err)
	})
}

// fuzzAttrs is FuzzCSVReader's schema: one column of every type.
var fuzzAttrs = []storage.Attribute{
	{Name: "i", Type: storage.Int64},
	{Name: "f", Type: storage.Float64},
	{Name: "b", Type: storage.Bool},
	{Name: "s", Type: storage.String},
}

// referenceCSV is FuzzCSVReader's oracle, the ingest path CSVReader
// replaced: encoding/csv with one field per attribute, then every cell
// decoded with strconv, an empty non-string cell as NULL. String cells
// come back in strs, in stream order, with a zero word in words.
func referenceCSV(data []byte, attrs []storage.Attribute) (words []storage.Word, strs []string, err error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = len(attrs)
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return words, strs, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("persist: csv: %w", err)
		}
		line, _ := r.FieldPos(0)
		for i, cell := range rec {
			if attrs[i].Type == storage.String {
				strs = append(strs, cell)
			}
			w, err := referenceCell(attrs[i].Type, cell)
			if err != nil {
				return nil, nil, fmt.Errorf("persist: csv line %d col %q: %w", line, attrs[i].Name, err)
			}
			words = append(words, w)
		}
	}
}

// referenceCell decodes one cell's text with strconv, an empty non-string
// cell as NULL. A string cell's word is zero.
func referenceCell(t storage.Type, cell string) (storage.Word, error) {
	switch {
	case t == storage.String:
		return 0, nil
	case cell == "":
		return storage.Null, nil
	case t == storage.Int64:
		v, err := strconv.ParseInt(cell, 10, 64)
		return storage.EncodeInt(v), err
	case t == storage.Float64:
		v, err := strconv.ParseFloat(cell, 64)
		return storage.EncodeFloat(v), err
	}
	v, err := strconv.ParseBool(cell)
	return storage.EncodeBool(v), err
}

// FuzzCSVReader checks the one-pass CSV reader against referenceCSV on
// arbitrary bytes, read in batches of three rows: the same words bit for
// bit and the same string cells, or, if either fails, both failing with
// the same message — a csv.ParseError of the same class at the same
// place, or a decoding error naming the same line and column.
func FuzzCSVReader(f *testing.F) {
	for _, seed := range []string{
		"1,2.5,true,a\n-3,-0.25,false,b\n",
		"1,2.5,true,\"quoted\"\n2,3.5,false,\"with \"\"quotes\"\"\"\n",
		"1,2.5,true,\"\"\n",
		"1,2.5,true,\"a,b\"\n2,1,1,\"line\nbreak\"\n3,,,\n",
		"1,2.5,true,x\r\n2,3.5,false,y\r\n",
		"\n\n1,2.5,true,x\n\r\n\n2,1,0,y\n",
		"1,2.5,true,no final newline",
		"1,2.5,true,no final newline\r",
		"1,2.5,true,bare\"quote\n",
		"\"1\",\"2.5\",\"true\",\"x\"\n",
		"1,2.5,true,\"open\n2,3,4,5\n",
		"-0,-0,t,x\n0,-0.0,F,y\n",
		"1,.5,true,x\n",
		"1,1.,true,x\n",
		"1,1e3,true,x\n",
		"+7,+7,1,x\n",
		"1234567890123456789,1,0,x\n",
		"-1234567890123456789,1,0,x\n",
		"9223372036854775807,1,0,x\n",
		"9223372036854775808,1,0,x\n",
		"-9223372036854775809,1,0,x\n",
		"123456789012345678,0.30000000000000004,1,x\n",
		"1,9007199254740993,1,x\n",
		"1,1.7976931348623157,1,x\n1,2.2250738585072014,0,y\n",
		"1,123456789.12345678,1,x\n1,0.1234567890123456789012,0,y\n",
		"1,2,true\n",
		"1,2,true,x,extra\n",
		"x,2,true,s\n",
		"1,2,maybe,s\n",
		"1,2,true,s\n1,2\n",
		",,,\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantWords, wantStrs, wantErr := referenceCSV(data, fuzzAttrs)

		var words []storage.Word
		var strs []string
		var err error
		br := NewCSVReader(bytes.NewReader(data), fuzzAttrs)
		for {
			var b *Batch
			if b, err = br.ReadBatch(3); err != nil {
				break
			}
			if n := b.Rows(); n < 1 || n > 3 || len(b.Words) != n*len(fuzzAttrs) {
				t.Fatalf("batch of %d rows in %d words", n, len(b.Words))
			}
			for i, w := range b.Words {
				if fuzzAttrs[i%len(fuzzAttrs)].Type == storage.String {
					strs = append(strs, string(b.Str(w)))
					w = 0
				}
				words = append(words, w)
			}
			b.Release() // the next batch reuses its buffers
		}
		if errors.Is(err, io.EOF) {
			err = nil
		}

		switch {
		case wantErr != nil || err != nil:
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("reader error %v, reference error %v", err, wantErr)
			}
			var pe *csv.ParseError
			if errors.As(wantErr, &pe) && !errors.Is(err, pe.Err) {
				t.Fatalf("reader error %v is not of class %v", err, pe.Err)
			}
		case !slices.Equal(words, wantWords):
			t.Fatalf("words\n%x\nwant\n%x", words, wantWords)
		case !slices.Equal(strs, wantStrs):
			t.Fatalf("strings %q, want %q", strs, wantStrs)
		}
	})
}

// referenceNDJSON is FuzzNDJSON's oracle for one line: encoding/json used
// strictly (one array decoded with UseNumber and nothing but whitespace
// after it), then the NDJSON cell rules: null is NULL, any other scalar's
// text (a number's literal, a string's value, true or false) is decoded as
// a CSV cell is, and a nested array or object is rejected. A blank line is
// no row. String cells come back in strs, with a zero word in words.
func referenceNDJSON(line []byte, attrs []storage.Attribute) (words []storage.Word, strs []string, ok bool) {
	if line = bytes.TrimSpace(line); len(line) == 0 {
		return nil, nil, true
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var vals []any
	if err := dec.Decode(&vals); err != nil || len(vals) != len(attrs) {
		return nil, nil, false
	}
	if len(bytes.Trim(line[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, nil, false
	}
	for i, v := range vals {
		var cell string
		switch v := v.(type) {
		case nil:
			words = append(words, storage.Null)
			continue
		case json.Number:
			cell = string(v)
		case string:
			cell = v
		case bool:
			cell = strconv.FormatBool(v)
		default:
			return nil, nil, false
		}
		if attrs[i].Type == storage.String {
			strs = append(strs, cell)
		}
		w, err := referenceCell(attrs[i].Type, cell)
		if err != nil {
			return nil, nil, false
		}
		words = append(words, w)
	}
	return words, strs, true
}

// FuzzNDJSON checks the NDJSON reader against referenceNDJSON on one
// line of arbitrary bytes: both accept it or both reject it, a rejection
// names line 1, and an accepted line gives the same words bit for bit and
// the same string cells.
func FuzzNDJSON(f *testing.F) {
	for _, seed := range []string{
		`[1, "berlin", 3.6, true]`,
		`[2, null, null, false]`,
		``,
		`[3, "munich", 1.5, null]`,
		`[1, "é", 1, true]`,
		"[1, \"\xff\xfe\", 1, true]",
		`[1, "a\u00e9\ud800\n\"", 1, true]`,
		`[-0, "a", -0, false]`,
		`[1, "a", 1e400, true]`,
		`[1, 2.50, "2.5", "t"]`,
		`["7", "", "", ""]`,
		`[1,[2]]`,
		`[1, "a", 1.5, {}]`,
		`{}`,
		`null`,
		`[]`,
		`[1, "a", 1.5, true] [2, "b", 2.5, false]`,
		`[1, "a", 1.5, true]x`,
		`[1, "a", 1.5, true],`,
		`[1, "a", 1.5, true,]`,
		"  [1 , \"a\" ,1.5,\ttrue ] \r",
	} {
		f.Add([]byte(seed))
	}
	attrs := loadTestRel().Schema.Attrs
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			return // one line
		}
		wantWords, wantStrs, wantOK := referenceNDJSON(line, attrs)

		var words []storage.Word
		var strs []string
		br := NewNDJSONReader(bytes.NewReader(line), attrs)
		b, err := br.ReadBatch(3)
		if err == nil {
			for i, w := range b.Words {
				if attrs[i%len(attrs)].Type == storage.String && w != storage.Null {
					strs = append(strs, string(b.Str(w)))
					w = 0
				}
				words = append(words, w)
			}
			_, err = br.ReadBatch(3)
		}
		if !errors.Is(err, io.EOF) {
			if wantOK {
				t.Fatalf("reader error %v, reference accepts", err)
			}
			if !strings.HasPrefix(err.Error(), "persist: ndjson line 1: ") && !strings.HasPrefix(err.Error(), "persist: ndjson line 1 col ") {
				t.Fatalf("reader error %v does not name line 1", err)
			}
			return
		}
		switch {
		case !wantOK:
			t.Fatalf("reader accepts %q (%d words), reference rejects", line, len(words))
		case !slices.Equal(words, wantWords):
			t.Fatalf("words\n%x\nwant\n%x", words, wantWords)
		case !slices.Equal(strs, wantStrs):
			t.Fatalf("strings %q, want %q", strs, wantStrs)
		}
	})
}
