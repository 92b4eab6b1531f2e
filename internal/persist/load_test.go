package persist

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/storage"
)

// loadAll streams br into rel the way the service's /load does, minus
// logging and transactions: each batch is encoded, its dictionary growth
// appended, then its rows. It returns the number of rows loaded.
func loadAll(rel *storage.Relation, br BatchReader, batchRows int) (int, error) {
	total := 0
	for {
		b, err := br.ReadBatch(batchRows)
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		if n := b.Rows(); n < 1 || n > batchRows {
			return total, fmt.Errorf("batch of %d rows, want 1 to %d", n, batchRows)
		}
		grown := EncodeRows(rel, b)
		for ai, values := range grown {
			if len(values) > 0 && rel.Dicts[ai] == nil {
				rel.Dicts[ai] = storage.BuildDict(nil)
			}
			for _, v := range values {
				rel.Dicts[ai].AppendCode(v)
			}
		}
		rel.AppendRows(b.Words)
		total += b.Rows()
		b.Release()
	}
}

func loadTestRel() *storage.Relation {
	schema := storage.NewSchema("cities",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "name", Type: storage.String},
		storage.Attribute{Name: "pop", Type: storage.Float64},
		storage.Attribute{Name: "capital", Type: storage.Bool},
	)
	return storage.NewRelation(schema, storage.PDSM([]int{0, 1}, []int{2, 3}))
}

func TestLoadCSV(t *testing.T) {
	rel := loadTestRel()
	csv := "1,berlin,3.6,true\n2,hamburg,1.8,false\n3,munich,,false\n"
	n, err := loadAll(rel, NewCSVReader(strings.NewReader(csv), rel.Schema.Attrs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || rel.Rows() != 3 {
		t.Fatalf("loaded %d rows, relation has %d, want 3", n, rel.Rows())
	}
	if got := rel.StringOf(1, 1); got != "hamburg" {
		t.Fatalf("row 1 name = %q", got)
	}
	if v := rel.Value(2, 2); v != storage.Null {
		t.Fatalf("empty float cell = %#x, want NULL", v)
	}
	if storage.DecodeFloat(rel.Value(0, 2)) != 3.6 {
		t.Fatal("float round trip failed")
	}
	if !storage.DecodeBool(rel.Value(0, 3)) || storage.DecodeBool(rel.Value(1, 3)) {
		t.Fatal("bool decode failed")
	}
	// Dictionary was created on the fly with append order codes.
	if rel.Dicts[1].Len() != 3 || rel.Dicts[1].SortedLen() != 0 {
		t.Fatalf("dict len=%d sorted=%d, want 3 and 0", rel.Dicts[1].Len(), rel.Dicts[1].SortedLen())
	}
}

func TestLoadNDJSON(t *testing.T) {
	rel := loadTestRel()
	nd := `[1, "berlin", 3.6, true]
[2, null, null, false]

[3, "munich", 1.5, null]
`
	n, err := loadAll(rel, NewNDJSONReader(strings.NewReader(nd), rel.Schema.Attrs), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d rows, want 3", n)
	}
	if rel.Value(1, 1) != storage.Null || rel.Value(1, 2) != storage.Null || rel.Value(2, 3) != storage.Null {
		t.Fatal("JSON null did not encode as NULL")
	}
	if got := rel.StringOf(2, 1); got != "munich" {
		t.Fatalf("row 2 name = %q", got)
	}
}

func TestLoadErrorsNameTheCell(t *testing.T) {
	rel := loadTestRel()
	_, err := loadAll(rel, NewCSVReader(strings.NewReader("x,berlin,1,true\n"), rel.Schema.Attrs), 4096)
	if err == nil || !strings.Contains(err.Error(), `col "id"`) {
		t.Fatalf("err = %v, want cell-naming parse error", err)
	}

	_, err = loadAll(rel, NewNDJSONReader(strings.NewReader(`[1, "a"]`), rel.Schema.Attrs), 4096)
	if err == nil || !strings.Contains(err.Error(), "want 4") {
		t.Fatalf("err = %v, want arity error", err)
	}

	// A line holds one array and nothing after it: a second array, a
	// stray byte or a trailing comma is rejected at its line, not loaded.
	for _, bad := range []string{
		`[1, "a", 1.5, true] [2, "b", 2.5, false]`,
		`[1, "a", 1.5, true]x`,
		`[1, "a", 1.5, true],`,
	} {
		in := "[0, \"z\", 0.5, false]\n" + bad + "\n"
		n, err := loadAll(loadTestRel(), NewNDJSONReader(strings.NewReader(in), rel.Schema.Attrs), 4096)
		if err == nil || !strings.HasPrefix(err.Error(), "persist: ndjson line 2: ") {
			t.Errorf("%s: loaded %d rows, err = %v, want a line 2 error", bad, n, err)
		}
	}

	// A bad cell in the second batch is named by its line in the stream,
	// not by its row within the batch. A blank line before it and a quoted
	// record spanning two lines count as lines too.
	var csvIn, ndIn strings.Builder
	csvIn.WriteString("\n0,\"new\nyork\",1,true\n")
	ndIn.WriteString("\n[0, \"york\", 1, true]\n")
	for i := 1; i < 5000; i++ {
		id := fmt.Sprint(i)
		if i == 4100 {
			id = "x"
		}
		fmt.Fprintf(&csvIn, "%s,city,%d.5,false\n", id, i)
		if i == 4100 {
			id = `"x"`
		}
		fmt.Fprintf(&ndIn, "[%s, \"city\", %d.5, false]\n", id, i)
	}
	for _, c := range []struct {
		name string
		br   BatchReader
		want string
	}{
		{"csv", NewCSVReader(strings.NewReader(csvIn.String()), rel.Schema.Attrs), `persist: csv line 4103 col "id": `},
		{"ndjson", NewNDJSONReader(strings.NewReader(ndIn.String()), rel.Schema.Attrs), `persist: ndjson line 4102 col "id": `},
	} {
		n, err := loadAll(loadTestRel(), c.br, 4096)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to start %q", c.name, err, c.want)
		}
		if n != 4096 {
			t.Errorf("%s: %d rows loaded before the bad batch, want 4096", c.name, n)
		}
	}
}

func TestParseSchemaSpec(t *testing.T) {
	attrs, err := ParseSchemaSpec("id:int64, name:string,pop:float64,cap:bool")
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 4 || attrs[1].Name != "name" || attrs[1].Type != storage.String {
		t.Fatalf("attrs = %+v", attrs)
	}
	for _, bad := range []string{"", "id", "id:int64,id:int64", "x:blob"} {
		if _, err := ParseSchemaSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
