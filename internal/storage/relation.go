package storage

import (
	"fmt"

	"repro/internal/exec/par"
)

// Partition is one vertical partition of a relation: the values of a group
// of attributes, stored row-major in a single contiguous word slice
// (stride = number of attributes in the group). A one-attribute partition
// is a plain column; the all-attribute partition is an N-ary row store.
type Partition struct {
	Attrs  []int // schema attribute indices, in storage order
	Stride int   // words per row (= len(Attrs))
	Data   []Word
}

// Accessor describes the physical location of one attribute inside a
// relation: index Data[row*Stride+Off]. The JiT engine fuses these into
// its generated loops; no method call remains on the per-tuple path.
type Accessor struct {
	Data   []Word
	Stride int
	Off    int
}

// At returns the attribute value of the given row.
func (a Accessor) At(row int) Word { return a.Data[row*a.Stride+a.Off] }

// Relation is a memory-resident table in a chosen vertical layout. The
// same logical content can be materialized under any layout via Builder or
// WithLayout; dictionaries are shared between such siblings.
type Relation struct {
	Schema *Schema
	Layout Layout
	Parts  []*Partition
	Dicts  []*Dict // indexed by attribute; nil for non-string attributes

	rows    int
	groupOf []int // attribute -> partition index
	offOf   []int // attribute -> offset within partition row
}

// NewRelation creates an empty relation with the given layout.
func NewRelation(schema *Schema, layout Layout) *Relation {
	if err := layout.Validate(schema.Width()); err != nil {
		panic(fmt.Sprintf("storage: invalid layout for %s: %v", schema.Name, err))
	}
	r := &Relation{
		Schema:  schema,
		Layout:  layout,
		Dicts:   make([]*Dict, schema.Width()),
		groupOf: make([]int, schema.Width()),
		offOf:   make([]int, schema.Width()),
	}
	for gi, g := range layout.Groups {
		p := &Partition{Attrs: append([]int(nil), g...), Stride: len(g)}
		r.Parts = append(r.Parts, p)
		for off, attr := range g {
			r.groupOf[attr] = gi
			r.offOf[attr] = off
		}
	}
	return r
}

// Rows returns the tuple count.
func (r *Relation) Rows() int { return r.rows }

// Access returns the physical accessor for attr.
func (r *Relation) Access(attr int) Accessor {
	p := r.Parts[r.groupOf[attr]]
	return Accessor{Data: p.Data, Stride: p.Stride, Off: r.offOf[attr]}
}

// Value returns the value of attr in the given row through a method call —
// the access path of the interpretive engines.
func (r *Relation) Value(row, attr int) Word {
	p := r.Parts[r.groupOf[attr]]
	return p.Data[row*p.Stride+r.offOf[attr]]
}

// SetValue overwrites one cell.
func (r *Relation) SetValue(row, attr int, w Word) {
	p := r.Parts[r.groupOf[attr]]
	p.Data[row*p.Stride+r.offOf[attr]] = w
}

// AppendRows appends tuples given row-major in schema attribute order
// (len(words) a multiple of the schema width) and returns the first new
// row id. A partition without room for them grows once per call, to at
// least twice its capacity, so appending a stream batch by batch copies
// each word O(1) times. Like append, AppendRows writes only beyond the
// partitions' lengths or into a fresh array: the words an older version
// of the slice header bounds are never rewritten (see CloneForWrite).
func (r *Relation) AppendRows(words []Word) int {
	width := r.Schema.Width()
	if len(words)%width != 0 {
		panic(fmt.Sprintf("storage: AppendRows got %d values for width-%d schema", len(words), width))
	}
	n, first := len(words)/width, r.rows
	for gi, p := range r.Parts {
		old := len(p.Data)
		p.grow(n)
		p.Data = p.Data[:old+n*p.Stride]
		dst, g := p.Data[old:], r.Layout.Groups[gi]
		if p.Stride == width && isIdentity(g) {
			copy(dst, words)
			continue
		}
		for row := 0; row < n; row++ {
			src, out := words[row*width:(row+1)*width], dst[row*p.Stride:(row+1)*p.Stride]
			for off, attr := range g {
				out[off] = src[attr]
			}
		}
	}
	r.rows += n
	return first
}

// Reserve makes room for rows more rows in every partition, so that
// appending them copies no partition. A partition without that room
// grows once, as AppendRows grows it: to at least twice its capacity.
// The same copy-on-write rule holds: the words an older version bounds
// are never rewritten.
func (r *Relation) Reserve(rows int) {
	for _, p := range r.Parts {
		p.grow(rows)
	}
}

// grow gives p room for rows more rows beyond its length: when it lacks
// it, p moves to a fresh array of at least twice its capacity.
func (p *Partition) grow(rows int) {
	need := len(p.Data) + rows*p.Stride
	if need <= cap(p.Data) {
		return
	}
	grown := make([]Word, len(p.Data), max(need, 2*cap(p.Data)))
	copy(grown, p.Data)
	p.Data = grown
}

// isIdentity reports whether the group holds every attribute in schema
// order, the N-ary row layout.
func isIdentity(g []int) bool {
	for i, attr := range g {
		if attr != i {
			return false
		}
	}
	return true
}

// Clip moves every partition with spare capacity into an array of
// exactly its length, dropping the slack AppendRows's doubling leaves.
// The copy runs as row-range morsels on opt's workers. The old arrays
// are left as they are, for any older version still reading them.
func (r *Relation) Clip(opt par.Options) {
	for _, p := range r.Parts {
		if cap(p.Data) == len(p.Data) {
			continue
		}
		// make's capacity is exactly its length, unlike append's, which
		// rounds up to the allocator's size class.
		src, dst, stride := p.Data, make([]Word, len(p.Data)), p.Stride
		par.Run(r.rows, opt, func(_, _, lo, hi int) {
			copy(dst[lo*stride:hi*stride], src[lo*stride:hi*stride])
		})
		p.Data = dst
	}
}

// Flatten lays rows out row-major in one slice, the form AppendRows
// takes. A single row is returned as it is.
func Flatten(rows [][]Word) []Word {
	if len(rows) == 1 {
		return rows[0]
	}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	out := make([]Word, 0, n)
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}

// RowValues materializes one tuple in schema attribute order.
func (r *Relation) RowValues(row int, dst []Word) []Word {
	if dst == nil {
		dst = make([]Word, r.Schema.Width())
	}
	for attr := range r.Schema.Attrs {
		dst[attr] = r.Value(row, attr)
	}
	return dst
}

// StringOf decodes a string attribute value of the given row.
func (r *Relation) StringOf(row, attr int) string {
	w := r.Value(row, attr)
	if w == Null {
		return ""
	}
	return r.Dicts[attr].Value(w)
}

// Dict returns the dictionary of a string attribute (nil otherwise).
func (r *Relation) Dict(attr int) *Dict { return r.Dicts[attr] }

// RestoreRelation reconstructs a relation from its serialized parts: the
// schema, the layout, one word slice per layout group (row-major, stride =
// group width, in the exact storage order AppendRows/Build produce), the
// per-attribute dictionaries (nil entries for non-string attributes), and
// the row count. It is the inverse of reading Relation.Parts[i].Data
// directly: a snapshot written from those slices and restored through here
// is bit-identical — same group order, strides, offsets and dict codes.
func RestoreRelation(schema *Schema, layout Layout, partData [][]Word, dicts []*Dict, rows int) (*Relation, error) {
	if err := layout.Validate(schema.Width()); err != nil {
		return nil, err
	}
	if len(partData) != len(layout.Groups) {
		return nil, fmt.Errorf("storage: restore of %s: %d partitions for %d layout groups",
			schema.Name, len(partData), len(layout.Groups))
	}
	if rows < 0 {
		return nil, fmt.Errorf("storage: restore of %s: negative row count %d", schema.Name, rows)
	}
	for gi, g := range layout.Groups {
		// Division form: Validate guarantees len(g) >= 1, and the product
		// rows*len(g) could overflow on hostile inputs.
		if len(partData[gi])/len(g) != rows || len(partData[gi])%len(g) != 0 {
			return nil, fmt.Errorf("storage: restore of %s: partition %d holds %d words, want %d rows × stride %d",
				schema.Name, gi, len(partData[gi]), rows, len(g))
		}
	}
	if dicts != nil && len(dicts) != schema.Width() {
		return nil, fmt.Errorf("storage: restore of %s: %d dictionaries for %d attributes",
			schema.Name, len(dicts), schema.Width())
	}
	r := NewRelation(schema, layout)
	r.rows = rows
	for gi, p := range r.Parts {
		p.Data = partData[gi]
	}
	if dicts != nil {
		copy(r.Dicts, dicts)
	}
	return r, nil
}

// CloneForWrite returns a copy-on-write shell of the relation for the MVCC
// write path: fresh Relation and Partition structs whose Data slice headers
// share the original backing arrays. Appends through the clone either
// reallocate (leaving readers of the original untouched) or write beyond
// every published length — addresses no reader of an older version ever
// dereferences, because each version's slice header bounds its own row
// count. Dictionaries are shared (append-only codes), as are the immutable
// Schema, Layout and attribute maps; only the Dicts slice itself is copied
// so a clone can install a dictionary lazily without racing old readers.
func (r *Relation) CloneForWrite() *Relation {
	out := &Relation{
		Schema:  r.Schema,
		Layout:  r.Layout,
		Parts:   make([]*Partition, len(r.Parts)),
		Dicts:   append([]*Dict(nil), r.Dicts...),
		rows:    r.rows,
		groupOf: r.groupOf,
		offOf:   r.offOf,
	}
	for i, p := range r.Parts {
		out.Parts[i] = &Partition{Attrs: p.Attrs, Stride: p.Stride, Data: p.Data}
	}
	return out
}

// WithLayout materializes the relation's content under a different layout.
// Dictionaries are shared: codes remain valid across siblings. Row ids
// are kept, so an index over the relation also indexes the result. The
// rows are handed out as morsels on opt's workers; each morsel walks its
// range in blocks of relayoutBlock and fills every target partition from
// a block while the block's source words are still in cache, so the
// source is streamed once, not once per attribute. Morsels write
// disjoint target ranges, so the result is the same for any worker count.
func (r *Relation) WithLayout(layout Layout, opt par.Options) *Relation {
	out := NewRelation(r.Schema, layout)
	out.Dicts = r.Dicts
	out.rows = r.rows
	src := make([]Accessor, r.Schema.Width())
	for attr := range src {
		src[attr] = r.Access(attr)
	}
	for _, p := range out.Parts {
		p.Data = make([]Word, r.rows*p.Stride)
	}
	par.Run(r.rows, opt, func(_, _, mlo, mhi int) {
		for lo := mlo; lo < mhi; lo += relayoutBlock {
			hi := min(lo+relayoutBlock, mhi)
			for gi, p := range out.Parts {
				for off, attr := range out.Layout.Groups[gi] {
					a := src[attr]
					for row := lo; row < hi; row++ {
						p.Data[row*p.Stride+off] = a.Data[row*a.Stride+a.Off]
					}
				}
			}
		}
	})
	return out
}

// relayoutBlock is WithLayout's row block: 1,024 rows of a 12-attribute
// row store are 96 KiB, which stay in a core's L2 cache while every
// target partition is filled from them.
const relayoutBlock = 1024

// Builder accumulates column data and materializes relations in any
// layout. String columns are collected as raw strings; Build constructs an
// order-preserving dictionary per string column.
type Builder struct {
	schema *Schema
	words  [][]Word   // per attribute; nil for pending string columns
	strs   [][]string // per attribute; non-nil only for string columns
	rows   int
	dicts  []*Dict
}

// Schema returns the builder's target schema.
func (b *Builder) Schema() *Schema { return b.schema }

// NewBuilder creates a builder for the schema.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{
		schema: schema,
		words:  make([][]Word, schema.Width()),
		strs:   make([][]string, schema.Width()),
		dicts:  make([]*Dict, schema.Width()),
	}
}

// SetWords supplies the encoded words of a non-string column.
func (b *Builder) SetWords(attr int, vals []Word) *Builder {
	b.words[attr] = vals
	b.noteRows(len(vals))
	return b
}

// SetInts supplies a signed integer column.
func (b *Builder) SetInts(attr int, vals []int64) *Builder {
	w := make([]Word, len(vals))
	for i, v := range vals {
		w[i] = EncodeInt(v)
	}
	return b.SetWords(attr, w)
}

// SetStrings supplies a string column.
func (b *Builder) SetStrings(attr int, vals []string) *Builder {
	b.strs[attr] = vals
	b.noteRows(len(vals))
	return b
}

func (b *Builder) noteRows(n int) {
	if b.rows == 0 {
		b.rows = n
		return
	}
	if n != b.rows {
		panic(fmt.Sprintf("storage: column length %d differs from earlier columns (%d)", n, b.rows))
	}
}

// Build materializes the collected columns under the given layout.
func (b *Builder) Build(layout Layout) *Relation {
	r := NewRelation(b.schema, layout)
	cols := make([][]Word, b.schema.Width())
	for attr := range b.schema.Attrs {
		switch {
		case b.words[attr] != nil:
			cols[attr] = b.words[attr]
		case b.strs[attr] != nil:
			if b.dicts[attr] == nil {
				b.dicts[attr] = BuildDict(b.strs[attr])
			}
			d := b.dicts[attr]
			w := make([]Word, len(b.strs[attr]))
			for i, s := range b.strs[attr] {
				w[i] = d.MustCode(s)
			}
			cols[attr] = w
		default:
			// Unset column: all NULL.
			w := make([]Word, b.rows)
			for i := range w {
				w[i] = Null
			}
			cols[attr] = w
		}
		if b.dicts[attr] != nil {
			r.Dicts[attr] = b.dicts[attr]
		}
	}
	r.rows = b.rows
	for gi, p := range r.Parts {
		p.Data = make([]Word, b.rows*p.Stride)
		for off, attr := range r.Layout.Groups[gi] {
			col := cols[attr]
			for row := 0; row < b.rows; row++ {
				p.Data[row*p.Stride+off] = col[row]
			}
		}
	}
	return r
}
