// Package core is the library facade: a memory-resident relational
// database that combines the paper's three contributions — partially
// decomposed storage (PDSM), JiT-style compiled query execution, and
// cost-model-driven layout optimization — behind one small API.
//
// Typical use:
//
//	db := core.Open()
//	db.CreateTable(schema, cols...)          // publishes a version: the table under NSM
//	res := db.Query(plan)                    // compiled execution
//	db.AddWorkload(w)                        // declare the query mix
//	report := db.OptimizeLayouts()           // BPi over every table, one more version
//	res = db.Query(plan)                     // now runs on PDSM
//
// Alternative processors (Volcano, bulk, HYRISE-style) are available via
// QueryWith for experiments that compare processing models, and the cost
// model is exposed via EstimateCost/AccessPattern for explain-style
// inspection.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/exec/bulk"
	"repro/internal/exec/hyrise"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/vector"
	"repro/internal/exec/volcano"
	"repro/internal/index"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// DB is a memory-resident database instance. The catalog is versioned:
// the current version is published through an atomic pointer (see
// mvcc.go), readers pin it with Snapshot, and a WriteTxn (BeginWrite)
// builds the next version copy-on-write and publishes it with one pointer
// swap — the only way a catalog changes. The one-shot methods below
// (CreateTable, AddTable, the index builders, OptimizeLayouts, Query of a
// plan.Insert) are single-writer conveniences: each opens a WriteTxn,
// makes its one change and commits, so pinned snapshots never see it, but
// no two writers may overlap. A served database is written through the
// service layer, which owns the commit mutex and the WAL.
type DB struct {
	id       uint64                  // process-unique, distinguishes epochs across SwapCore
	cur      atomic.Pointer[version] // published catalog version
	verMu    sync.Mutex              // guards retired
	retired  []*version              // superseded versions awaiting reader drain
	dropped  atomic.Int64            // versions reclaimed after their last unpin
	pinned   atomic.Int64            // currently held snapshots
	geometry mem.Geometry
	engine   exec.Engine
	opt      par.Options // morsel workers for relayouts, clips and index builds
	mix      *workload.Workload
}

var nextDBID atomic.Uint64

// Open creates an empty database using the paper's Table III hardware
// model and the JiT engine.
func Open() *DB {
	db := &DB{
		id:       nextDBID.Add(1),
		geometry: mem.TableIII(),
		engine:   jit.New(),
		opt:      par.Serial(),
		mix:      &workload.Workload{Name: "default"},
	}
	db.cur.Store(&version{epoch: 1, cat: plan.NewCatalog()})
	return db
}

// SetParOptions installs the compiled engine with explicit morsel-
// scheduler options — the way to share one process-wide par.Pool across
// databases or with the service layer. Serial options, or a pool of one
// worker, run the engine serially (the paper's single-core
// configuration); a larger pool returns identical rows in identical
// order. Write transactions run their relayouts, clips and index builds
// on the same options.
func (db *DB) SetParOptions(opt par.Options) *DB {
	db.opt = opt
	db.engine = jit.NewParallel(opt)
	return db
}

// Catalog exposes the current version's catalog (advanced use). Callers
// that need a stable view across multiple operations should pin a
// Snapshot instead.
func (db *DB) Catalog() *plan.Catalog { return db.cur.Load().cat }

// Geometry returns the hardware model used for cost estimation.
func (db *DB) Geometry() mem.Geometry { return db.geometry }

// write publishes one version holding whatever fn changes.
func (db *DB) write(fn func(tx *WriteTxn)) {
	tx := db.BeginWrite()
	fn(tx)
	tx.Commit()
}

// CreateTable loads a relation built with storage.Builder into the
// database under the N-ary layout and returns it.
func (db *DB) CreateTable(b *storage.Builder) *storage.Relation {
	rel := b.Build(storage.NSM(b.Schema().Width()))
	db.AddTable(rel)
	return rel
}

// AddTable registers an existing relation.
func (db *DB) AddTable(rel *storage.Relation) {
	db.write(func(tx *WriteTxn) { tx.AddTable(rel) })
}

// Table returns a registered relation.
func (db *DB) Table(name string) *storage.Relation { return db.Catalog().Table(name) }

// CreateHashIndex builds and registers a hash index on table.attr.
func (db *DB) CreateHashIndex(table string, attr int) {
	db.write(func(tx *WriteTxn) {
		if err := tx.CreateIndex(table, attr, index.KindHash); err != nil {
			panic(err) // KindHash is a kind index.New knows
		}
	})
}

// run executes p on engine e against the current version; a plan.Insert
// is published as one version instead, whatever the engine (exec.RunInsert
// serves them all).
func (db *DB) run(e exec.Engine, p plan.Node) (res *result.Set) {
	if ins, ok := p.(plan.Insert); ok {
		db.write(func(tx *WriteTxn) { res = tx.Insert(ins.Table, ins.Rows) })
		return res
	}
	return e.Run(p, db.Catalog())
}

// Query executes a plan with the compiled (JiT-style) engine.
func (db *DB) Query(p plan.Node) *result.Set { return db.run(db.engine, p) }

// Engines lists the available processing models by name.
func Engines() map[string]exec.Engine {
	return map[string]exec.Engine{
		"jit":     jit.New(),
		"volcano": volcano.New(),
		"bulk":    bulk.New(),
		"hyrise":  hyrise.New(),
		"vector":  vector.New(),
	}
}

// QueryWith executes a plan under a named processing model ("jit",
// "volcano", "bulk", "hyrise", "vector").
func (db *DB) QueryWith(engineName string, p plan.Node) (*result.Set, error) {
	e, ok := Engines()[engineName]
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q", engineName)
	}
	return db.run(e, p), nil
}

// AddWorkload declares the query mix used by OptimizeLayouts.
func (db *DB) AddWorkload(name string, p plan.Node, frequency float64) {
	db.mix.Add(name, p, frequency)
}

// AccessPattern returns the cost model's pattern program for a plan — the
// paper's "programmable cost model" view of the query.
func (db *DB) AccessPattern(p plan.Node) string {
	return costmodel.Translate(p, db.Catalog(), nil).String()
}

// EstimateCost prices a plan (in modeled CPU cycles) under the current
// layouts.
func (db *DB) EstimateCost(p plan.Node) float64 {
	return costmodel.CostOfPlan(p, db.Catalog(), nil, db.geometry)
}

// LayoutChange records one table's re-layout decision.
type LayoutChange struct {
	Table   string
	Old     storage.Layout
	New     storage.Layout
	OldCost float64
	NewCost float64
}

// OptimizeLayouts runs BPi over every table referenced by the declared
// workload and publishes the chosen layouts as one version, returning the
// per-table decisions. Registered indexes carry over to the re-laid-out
// relations unchanged.
func (db *DB) OptimizeLayouts() (changes []LayoutChange) {
	db.write(func(tx *WriteTxn) { changes, _ = tx.OptimizeLayouts(nil) })
	return changes
}
