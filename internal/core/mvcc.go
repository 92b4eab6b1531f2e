package core

import (
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/exec/result"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/plan"
	"repro/internal/storage"
)

// MVCC snapshot isolation. The catalog is published as an immutable
// version: readers pin the current version (Snapshot) and run lock-free
// against it for the whole query, while a single writer at a time builds
// the next version copy-on-write (BeginWrite) and publishes it with one
// atomic pointer swap (Commit). Append-only word storage makes the copy
// cheap: a write transaction clones only the Relation/Partition structs
// (slice headers) of the tables it touches, never the data arrays —
// appends either reallocate or write beyond every published length, at
// addresses no pinned reader dereferences. Superseded versions are
// reclaimed once their last pin drops (epoch-based reclamation); until
// then they keep their catalog maps and cloned index structures alive so
// in-flight readers never observe a torn catalog.
//
// Writers do not serialize here — Commit fail-fasts (panics) if two
// transactions race to publish. The service layer owns the single-writer
// discipline via its commit mutex; this keeps the hot read path free of
// any locking while making misuse loud instead of silently lost.

// version is one immutable published state of the database: an epoch
// number and the catalog frozen at that epoch.
type version struct {
	epoch uint64
	cat   *plan.Catalog
	pins  atomic.Int64
	done  atomic.Bool // set once superseded by a newer version
}

// Snapshot is a pinned, immutable view of the database at one epoch.
// It stays valid — and row-identical to the moment it was pinned — until
// Release, no matter how many writes publish in the meantime.
type Snapshot struct {
	db       *DB
	v        *version
	released atomic.Bool
}

// Snapshot pins the current version. The pin-validate-retry loop closes
// the race with a concurrent publisher: if the version changed between
// the load and the pin, the pin may have landed on an already-superseded
// version whose reclaim scan has passed — unpin and retry on the fresh
// pointer. Publication is rare relative to reads, so the loop almost
// always exits on the first iteration.
func (db *DB) Snapshot() *Snapshot {
	for {
		v := db.cur.Load()
		v.pins.Add(1)
		if db.cur.Load() == v {
			db.pinned.Add(1)
			return &Snapshot{db: db, v: v}
		}
		if v.pins.Add(-1) == 0 && v.done.Load() {
			db.reclaim()
		}
	}
}

// Catalog returns the snapshot's immutable catalog.
func (s *Snapshot) Catalog() *plan.Catalog { return s.v.cat }

// Epoch returns the snapshot's version number.
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// Release unpins the snapshot. Idempotent. Dropping the last pin of a
// superseded version triggers reclamation.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.db.pinned.Add(-1)
	if s.v.pins.Add(-1) == 0 && s.v.done.Load() {
		s.db.reclaim()
	}
}

// reclaim drops retired versions that no reader pins any more. A version
// that gathers a doomed pin from the Snapshot retry loop mid-scan is kept
// for now; the retry loop's unpin triggers another scan, so the backlog
// always converges to zero once readers drain.
func (db *DB) reclaim() {
	db.verMu.Lock()
	defer db.verMu.Unlock()
	kept := db.retired[:0]
	for _, v := range db.retired {
		if v.pins.Load() == 0 {
			db.dropped.Add(1)
			continue
		}
		kept = append(kept, v)
	}
	for i := len(kept); i < len(db.retired); i++ {
		db.retired[i] = nil
	}
	db.retired = kept
}

// ID returns a process-unique identifier for this DB instance, letting
// callers (the service plan cache) distinguish epoch e of one core from
// epoch e of a core swapped in later.
func (db *DB) ID() uint64 { return db.id }

// Epoch returns the currently published version number.
func (db *DB) Epoch() uint64 { return db.cur.Load().epoch }

// ActiveSnapshots returns the number of snapshots currently pinned.
func (db *DB) ActiveSnapshots() int64 { return db.pinned.Load() }

// LiveVersions returns the published version plus the superseded versions
// still awaiting reader drain — the reclaim backlog is LiveVersions()-1.
func (db *DB) LiveVersions() int {
	db.verMu.Lock()
	defer db.verMu.Unlock()
	return 1 + len(db.retired)
}

// VersionsReclaimed returns how many superseded versions have been
// reclaimed since Open.
func (db *DB) VersionsReclaimed() int64 { return db.dropped.Load() }

// WriteTxn builds the next catalog version copy-on-write. All mutators
// are invisible to concurrent readers until Commit publishes the version
// atomically; an abandoned transaction (no Commit) leaves the database
// untouched. At most one WriteTxn may be open at a time — callers
// serialize writers (the service layer's commit mutex).
type WriteTxn struct {
	db    *DB
	base  *version
	cat   *plan.Catalog
	cowed map[string]bool // tables whose relation+indexes are already private
}

// BeginWrite opens a write transaction against the current version.
func (db *DB) BeginWrite() *WriteTxn {
	base := db.cur.Load()
	return &WriteTxn{db: db, base: base, cat: base.cat.Clone(), cowed: map[string]bool{}}
}

// Catalog returns the transaction's private catalog view: base state plus
// this transaction's own mutations.
func (tx *WriteTxn) Catalog() *plan.Catalog { return tx.cat }

// Epoch returns the epoch Commit will publish.
func (tx *WriteTxn) Epoch() uint64 { return tx.base.epoch + 1 }

// rel returns a transaction-private copy of the table, cloning the
// relation shell and its registered indexes on first touch.
func (tx *WriteTxn) rel(table string) *storage.Relation {
	cur := tx.cat.Table(table)
	if tx.cowed[table] {
		return cur
	}
	clone := cur.CloneForWrite()
	tx.cat.Add(clone)
	for attr := 0; attr < clone.Schema.Width(); attr++ {
		if idx := tx.cat.Index(table, attr); idx != nil {
			tx.cat.AddIndex(table, attr, idx.Clone())
		}
	}
	tx.cowed[table] = true
	return clone
}

// AddTable registers a relation under its schema name. The relation is
// treated as transaction-private (no further cloning on later touches).
func (tx *WriteTxn) AddTable(rel *storage.Relation) {
	tx.cat.Add(rel)
	tx.cowed[rel.Schema.Name] = true
}

// Insert appends rows and maintains the table's (cloned) indexes,
// returning the usual one-row count result.
func (tx *WriteTxn) Insert(table string, rows [][]storage.Word) *result.Set {
	tx.rel(table)
	return exec.RunInsert(plan.Insert{Table: table, Rows: rows}, tx.cat)
}

// relayout swaps table's relation for a copy under layout l and rebuilds
// the table's registered indexes over it.
func (tx *WriteTxn) relayout(table string, rel *storage.Relation, l storage.Layout) {
	tx.cat.Add(rel.WithLayout(l))
	tx.cowed[table] = true
	for _, def := range tx.cat.IndexDefs(table) {
		tx.mustCreateIndex(table, def.Attr, def.Kind)
	}
}

// ApplyLayout materializes table under the given layout with no cost
// comparison and rebuilds its registered indexes. WAL replay re-applies a
// logged decision through it, so the restored design is what the optimizer
// picked, not what a re-run over a different intermediate state would.
func (tx *WriteTxn) ApplyLayout(table string, l storage.Layout) {
	if rel := tx.cat.Table(table); !rel.Layout.Equal(l) {
		tx.relayout(table, rel, l)
	}
}

// OptimizeLayouts runs BPi over every table referenced by the declared
// workload against the transaction's version, materializing improvements
// privately; readers keep scanning the old layouts until Commit. Each
// decision is passed to logged, when non-nil, before it is materialized:
// an error there stops the run and is returned with the decisions
// materialized before it, so a caller that logs decisions there never
// holds one its log lacks.
func (tx *WriteTxn) OptimizeLayouts(logged func(LayoutChange) error) ([]LayoutChange, error) {
	est := costmodel.NewEstimator(tx.cat, tx.db.geometry)
	o := layout.NewOptimizer(est)
	var changes []LayoutChange
	for _, tbl := range tx.db.mix.Tables() {
		rel := tx.cat.Table(tbl)
		oldLayout := rel.Layout
		oldCost := tx.db.mix.Cost(est, map[string]storage.Layout{tbl: oldLayout})
		best, newCost := o.Optimize(tbl, tx.db.mix)
		if !best.Equal(oldLayout) && newCost < oldCost {
			ch := LayoutChange{Table: tbl, Old: oldLayout, New: best, OldCost: oldCost, NewCost: newCost}
			if logged != nil {
				if err := logged(ch); err != nil {
					return changes, err
				}
			}
			tx.relayout(tbl, rel, best)
			changes = append(changes, ch)
		}
	}
	return changes, nil
}

// CreateIndex builds an index of the given kind (index.KindHash,
// index.KindRBTree) on table.attr and registers it in the transaction's
// version. An unknown kind is an error and changes nothing.
func (tx *WriteTxn) CreateIndex(table string, attr int, kind string) error {
	rel := tx.cat.Table(table)
	idx, err := index.New(kind, rel.Rows())
	if err != nil {
		return err
	}
	tx.cat.AddIndex(table, attr, index.BuildOn(idx, rel, attr))
	return nil
}

// mustCreateIndex is CreateIndex for a kind the caller took from the
// index package or from a live index.
func (tx *WriteTxn) mustCreateIndex(table string, attr int, kind string) {
	if err := tx.CreateIndex(table, attr, kind); err != nil {
		panic(err)
	}
}

// DictAppend appends values to the dictionary of a string attribute,
// creating the dictionary if the column has none yet. Dictionaries are
// shared across versions (append-only codes are harmless to old readers),
// so only the nil→dict installation needs copy-on-write.
func (tx *WriteTxn) DictAppend(table string, attr int, values []string) {
	rel := tx.cat.Table(table)
	if rel.Dicts[attr] == nil {
		rel = tx.rel(table)
		rel.Dicts[attr] = storage.BuildDict(nil)
	}
	d := rel.Dicts[attr]
	for _, v := range values {
		d.AppendCode(v)
	}
}

// Commit publishes the transaction's version with one atomic pointer
// swap and retires the base version for reclamation. It returns the
// published epoch. Commit panics if another publisher won the race —
// writers must be serialized by the caller.
func (tx *WriteTxn) Commit() uint64 {
	db := tx.db
	next := &version{epoch: tx.base.epoch + 1, cat: tx.cat}
	if !db.cur.CompareAndSwap(tx.base, next) {
		panic("core: WriteTxn.Commit raced with another publisher; writers must serialize")
	}
	tx.base.done.Store(true)
	db.verMu.Lock()
	db.retired = append(db.retired, tx.base)
	db.verMu.Unlock()
	db.reclaim()
	return next.epoch
}
