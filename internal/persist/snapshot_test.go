package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/storage"
)

// buildTestDB creates a database with three tables covering the layout
// spectrum, mixed types, appended (non-order-preserving) dictionary
// codes, NULLs and indexes.
func buildTestDB(t testing.TB, rows int) *core.DB {
	t.Helper()
	db := core.Open()
	rng := rand.New(rand.NewSource(7))

	schema := storage.NewSchema("t",
		storage.Attribute{Name: "id", Type: storage.Int64},
		storage.Attribute{Name: "grp", Type: storage.Int64},
		storage.Attribute{Name: "val", Type: storage.Int64},
		storage.Attribute{Name: "price", Type: storage.Float64},
		storage.Attribute{Name: "name", Type: storage.String},
		storage.Attribute{Name: "flag", Type: storage.Bool},
	)
	words := []string{"alpha", "beta", "gamma", "delta"}
	ids := make([]int64, rows)
	grps := make([]int64, rows)
	vals := make([]int64, rows)
	prices := make([]storage.Word, rows)
	names := make([]string, rows)
	nulls := make([]bool, rows)
	flags := make([]storage.Word, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		grps[i] = int64(rng.Intn(5))
		vals[i] = rng.Int63n(1000) - 500
		prices[i] = storage.EncodeFloat(float64(rng.Intn(10000)) / 100)
		names[i] = words[rng.Intn(len(words))]
		nulls[i] = i%7 == 3
		flags[i] = storage.EncodeBool(i%2 == 0)
	}
	b := storage.NewBuilder(schema)
	b.SetInts(0, ids).SetInts(1, grps).SetInts(2, vals).SetWords(3, prices)
	b.SetStrings(4, names)
	b.SetWords(5, flags)
	rel := b.Build(storage.PDSM([]int{0, 4}, []int{1, 2, 5}, []int{3}))
	nameAcc := rel.Access(4)
	for i, null := range nulls {
		if null {
			nameAcc.Data[i*nameAcc.Stride+nameAcc.Off] = storage.Null
		}
	}
	db.AddTable(rel)
	db.CreateHashIndex("t", 0)
	tx := db.BeginWrite()
	if err := tx.CreateIndex("t", 2, index.KindRBTree); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	// Appended dict values get non-order-preserving codes; the round trip
	// must keep SortedLen.
	rel.Dicts[4].AppendCode("zz-appended")
	rel.AppendRows([]storage.Word{
		storage.EncodeInt(int64(rows)), storage.EncodeInt(1), storage.EncodeInt(0),
		storage.EncodeFloat(1.5), rel.Dicts[4].MustCode("zz-appended"), storage.EncodeBool(true),
	})

	colSchema := storage.NewSchema("events",
		storage.Attribute{Name: "ts", Type: storage.Int64},
		storage.Attribute{Name: "kind", Type: storage.String},
	)
	cb := storage.NewBuilder(colSchema)
	ts := make([]int64, rows/2)
	kinds := make([]string, rows/2)
	for i := range ts {
		ts[i] = int64(i * 10)
		kinds[i] = words[i%len(words)]
	}
	cb.SetInts(0, ts).SetStrings(1, kinds)
	db.AddTable(cb.Build(storage.DSM(2)))

	empty := storage.NewRelation(storage.NewSchema("empty",
		storage.Attribute{Name: "x", Type: storage.Int64}), storage.NSM(1))
	db.AddTable(empty)
	return db
}

// assertBitIdentical requires the recovered relation to match the
// original exactly: layout group order, strides, partition word data,
// dictionary value tables and sorted prefixes.
func assertBitIdentical(t *testing.T, table string, a, b *core.DB) {
	t.Helper()
	ra, rb := a.Catalog().Table(table), b.Catalog().Table(table)
	if ra.Rows() != rb.Rows() {
		t.Fatalf("%s: rows %d != %d", table, ra.Rows(), rb.Rows())
	}
	if !reflect.DeepEqual(ra.Layout.Groups, rb.Layout.Groups) {
		t.Fatalf("%s: layout %v != %v", table, ra.Layout, rb.Layout)
	}
	if len(ra.Parts) != len(rb.Parts) {
		t.Fatalf("%s: %d parts != %d", table, len(ra.Parts), len(rb.Parts))
	}
	for i := range ra.Parts {
		pa, pb := ra.Parts[i], rb.Parts[i]
		if pa.Stride != pb.Stride || !reflect.DeepEqual(pa.Attrs, pb.Attrs) {
			t.Fatalf("%s part %d: stride/attrs (%d,%v) != (%d,%v)", table, i, pa.Stride, pa.Attrs, pb.Stride, pb.Attrs)
		}
		if !reflect.DeepEqual(pa.Data, pb.Data) {
			t.Fatalf("%s part %d: word data differs", table, i)
		}
	}
	for attr := 0; attr < ra.Schema.Width(); attr++ {
		da, db_ := ra.Dicts[attr], rb.Dicts[attr]
		if (da == nil) != (db_ == nil) {
			t.Fatalf("%s attr %d: dict presence %v != %v", table, attr, da != nil, db_ != nil)
		}
		if da == nil {
			continue
		}
		if !reflect.DeepEqual(da.Values(), db_.Values()) {
			t.Fatalf("%s attr %d: dict values differ", table, attr)
		}
		if da.SortedLen() != db_.SortedLen() {
			t.Fatalf("%s attr %d: sorted prefix %d != %d", table, attr, da.SortedLen(), db_.SortedLen())
		}
	}
	if !reflect.DeepEqual(a.Catalog().IndexDefs(table), b.Catalog().IndexDefs(table)) {
		t.Fatalf("%s: index defs %v != %v", table, a.Catalog().IndexDefs(table), b.Catalog().IndexDefs(table))
	}
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	db := buildTestDB(t, 500)
	var buf bytes.Buffer
	n, err := WriteCatalogSnapshot(&buf, db.Catalog(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	got, epoch, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("checkpoint epoch %d, want the 7 it was written with", epoch)
	}
	if want := db.Catalog().Names(); !reflect.DeepEqual(got.Catalog().Names(), want) {
		t.Fatalf("tables %v, want %v", got.Catalog().Names(), want)
	}
	for _, name := range db.Catalog().Names() {
		assertBitIdentical(t, name, db, got)
	}
	// A second write of the restored DB must produce identical bytes —
	// the encoding is canonical.
	var buf2 bytes.Buffer
	if _, err := WriteCatalogSnapshot(&buf2, got.Catalog(), epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-snapshot of restored DB differs from original snapshot")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	db := buildTestDB(t, 100)
	var buf bytes.Buffer
	if _, err := WriteCatalogSnapshot(&buf, db.Catalog(), 0); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[8] = 99; return b }, ErrBadVersion},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }, ErrChecksum},
		{"truncated", func(b []byte) []byte { return b[:len(b)-10] }, ErrTruncated},
		{"header only", func(b []byte) []byte { return b[:16] }, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), good...))
			_, _, err := ReadSnapshot(bytes.NewReader(mut))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestSnapshotDecodeRejectsStructuralCorruption(t *testing.T) {
	// Corrupt the payload structurally but fix up the CRC, so the error
	// comes from the structural validation, not the checksum.
	db := buildTestDB(t, 50)
	var buf bytes.Buffer
	if _, err := WriteCatalogSnapshot(&buf, db.Catalog(), 0); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate an attribute index across groups (of the multi-group
	// table "t").
	var bad *TableSnap
	for _, tab := range snap.Tables {
		if tab.Schema.Name == "t" {
			bad = tab
		}
	}
	bad.Layout.Groups[0][0] = bad.Layout.Groups[1][0]
	payload := encodeTable(bad)
	if _, err := decodeTable(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate-attr layout: err = %v, want ErrCorrupt", err)
	}
}
