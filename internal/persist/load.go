package persist

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Streaming bulk ingestion: readers turn a CSV or NDJSON byte stream into
// batches of raw fields; EncodeRows turns a raw batch into word rows for
// one relation, running string values through its dictionaries. The two
// halves are split so a caller can parse outside its catalog lock and
// encode inside it — parsing dominates, and the dictionary growth a batch
// needs is returned rather than applied, so the caller can log it before
// it touches shared state.

// Field is one raw cell of an ingested row.
type Field struct {
	Text string
	Null bool
}

// BatchReader yields batches of raw rows; io.EOF ends the stream.
type BatchReader interface {
	// ReadBatch returns up to max rows. It returns io.EOF (with zero
	// rows) when the input is exhausted.
	ReadBatch(max int) ([][]Field, error)
}

// CSVReader streams comma-separated rows of a fixed width. Empty cells
// are NULL for non-string columns (EncodeRows decides by type); there is
// no quoting convention for NULL strings.
type CSVReader struct {
	r     *csv.Reader
	width int
}

// NewCSVReader reads width-column CSV from r.
func NewCSVReader(r io.Reader, width int) *CSVReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = width
	cr.ReuseRecord = true
	return &CSVReader{r: cr, width: width}
}

// ReadBatch implements BatchReader.
func (c *CSVReader) ReadBatch(max int) ([][]Field, error) {
	var out [][]Field
	for len(out) < max {
		rec, err := c.r.Read()
		if errors.Is(err, io.EOF) {
			if len(out) == 0 {
				return nil, io.EOF
			}
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("persist: csv: %w", err)
		}
		row := make([]Field, c.width)
		for i, cell := range rec {
			row[i] = Field{Text: cell}
		}
		out = append(out, row)
	}
	return out, nil
}

// NDJSONReader streams newline-delimited JSON arrays, one row per line:
// [1, "a", 2.5, null]. Numbers keep their literal text (json.Number), so
// float values round-trip exactly; null becomes the NULL word.
type NDJSONReader struct {
	sc    *bufio.Scanner
	width int
	line  int
}

// NewNDJSONReader reads width-element JSON array lines from r.
func NewNDJSONReader(r io.Reader, width int) *NDJSONReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return &NDJSONReader{sc: sc, width: width}
}

// ReadBatch implements BatchReader.
func (n *NDJSONReader) ReadBatch(max int) ([][]Field, error) {
	var out [][]Field
	for len(out) < max {
		if !n.sc.Scan() {
			if err := n.sc.Err(); err != nil {
				return out, fmt.Errorf("persist: ndjson: %w", err)
			}
			if len(out) == 0 {
				return nil, io.EOF
			}
			return out, nil
		}
		n.line++
		line := strings.TrimSpace(n.sc.Text())
		if line == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var vals []any
		if err := dec.Decode(&vals); err != nil {
			return out, fmt.Errorf("persist: ndjson line %d: %w", n.line, err)
		}
		if len(vals) != n.width {
			return out, fmt.Errorf("persist: ndjson line %d: %d values, want %d", n.line, len(vals), n.width)
		}
		row := make([]Field, n.width)
		for i, v := range vals {
			switch t := v.(type) {
			case nil:
				row[i] = Field{Null: true}
			case json.Number:
				row[i] = Field{Text: t.String()}
			case string:
				row[i] = Field{Text: t}
			case bool:
				row[i] = Field{Text: strconv.FormatBool(t)}
			default:
				return out, fmt.Errorf("persist: ndjson line %d col %d: unsupported value %v", n.line, i, v)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// EncodeRows encodes a raw batch into word rows in rel's schema attribute
// order. It reads rel's dictionaries but never changes them: string
// values a dictionary lacks come back in grown[attr], in the order of the
// codes the rows already carry (a column's first new value is coded
// Dicts[attr].Len(), or 0 without a dictionary), for the caller to append
// — after logging them — before the rows are published. grown is nil when
// no column grew. Empty non-string cells and Null fields encode as the
// NULL word.
func EncodeRows(rel *storage.Relation, batch [][]Field) (rows [][]storage.Word, grown [][]string, err error) {
	attrs := rel.Schema.Attrs
	rows = make([][]storage.Word, len(batch))
	var staged []map[string]storage.Word // per attribute: new value -> code
	for ri, raw := range batch {
		if len(raw) != len(attrs) {
			return nil, nil, fmt.Errorf("persist: row %d has %d fields, want %d", ri, len(raw), len(attrs))
		}
		row := make([]storage.Word, len(attrs))
		for ai, f := range raw {
			if f.Null || (f.Text == "" && attrs[ai].Type != storage.String) {
				row[ai] = storage.Null
				continue
			}
			switch attrs[ai].Type {
			case storage.Int64:
				v, err := strconv.ParseInt(f.Text, 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("persist: row %d col %q: %w", ri, attrs[ai].Name, err)
				}
				row[ai] = storage.EncodeInt(v)
			case storage.Float64:
				v, err := strconv.ParseFloat(f.Text, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("persist: row %d col %q: %w", ri, attrs[ai].Name, err)
				}
				row[ai] = storage.EncodeFloat(v)
			case storage.Bool:
				v, err := strconv.ParseBool(f.Text)
				if err != nil {
					return nil, nil, fmt.Errorf("persist: row %d col %q: %w", ri, attrs[ai].Name, err)
				}
				row[ai] = storage.EncodeBool(v)
			case storage.String:
				d, base := rel.Dicts[ai], 0
				if d != nil {
					if c, ok := d.Code(f.Text); ok {
						row[ai] = c
						continue
					}
					base = d.Len()
				}
				if grown == nil {
					grown = make([][]string, len(attrs))
					staged = make([]map[string]storage.Word, len(attrs))
				}
				c, ok := staged[ai][f.Text]
				if !ok {
					if staged[ai] == nil {
						staged[ai] = map[string]storage.Word{}
					}
					c = storage.Word(base + len(grown[ai]))
					staged[ai][f.Text] = c
					grown[ai] = append(grown[ai], f.Text)
				}
				row[ai] = c
			}
		}
		rows[ri] = row
	}
	return rows, grown, nil
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
