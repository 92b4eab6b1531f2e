// Package repro's root benchmark suite regenerates every series of the
// paper's evaluation section as Go benchmarks: one Benchmark function per
// table/figure, with sub-benchmarks for each (processor, layout,
// parameter) combination the corresponding plot shows. Run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or select one artefact, e.g.
//
//	go test -bench BenchmarkFig03
//
// The cmd/benchrunner binary prints the same series as paper-style tables.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench/chbench"
	"repro/internal/bench/cnet"
	"repro/internal/bench/sapsd"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
	"repro/internal/exec/vector"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/mem"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/storage"
)

// BenchmarkFig03 regenerates Figure 3: the example query under every
// processing model and storage layout across the selectivity sweep. The
// trailing workers sub-benchmarks add the morsel-parallel JiT engine on
// the paper's headline cell (column layout, sel = 0.5) so serial and
// parallel numbers land in one run.
func BenchmarkFig03(b *testing.B) {
	setup := experiments.NewFig3Setup(1_000_000)
	for _, e := range experiments.Fig3EnginesOpt(experiments.Options{}) {
		for _, layout := range []string{"row", "column", "hybrid"} {
			cat := setup.Catalogs[layout]
			for _, s := range []float64{0.0001, 0.01, 0.5, 1.0} {
				q := setup.Query(s)
				b.Run(fmt.Sprintf("%s/%s/sel=%g", e.Name(), layout, s), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e.Run(q, cat)
					}
				})
			}
		}
	}
	cat := setup.Catalogs["column"]
	q := setup.Query(0.5)
	for _, w := range workerCounts() {
		e := jit.NewParallel(poolOptions(b, w))
		b.Run(fmt.Sprintf("jit/column/sel=0.5/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(q, cat)
			}
		})
	}
}

// workerCounts is the scaling sweep: 1 (serial baseline), powers of two up
// to the machine, and the machine itself.
func workerCounts() []int {
	counts := []int{1}
	for w := 2; w < runtime.NumCPU(); w *= 2 {
		counts = append(counts, w)
	}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// poolOptions returns options on a pool of w workers that b closes when
// it ends; one worker runs serially.
func poolOptions(b *testing.B, w int) par.Options {
	pool := par.NewPool(w)
	b.Cleanup(pool.Close)
	return par.WithPool(pool)
}

// BenchmarkParallelScaling measures the morsel scheduler: the Figure 3
// aggregate (jit's scan-aggregate kernel) and the bare filtered scan
// (chunk-backed row emit) on the column layout, for the JiT engine, the
// one parallel engine, across the worker sweep. workers=1 is the serial
// engine — the paper's configuration — so each series' first entry is the
// scaling baseline.
func BenchmarkParallelScaling(b *testing.B) {
	setup := experiments.NewFig3Setup(1_000_000)
	cat := setup.Catalogs["column"]
	agg := setup.Query(0.5)
	scan := agg.(plan.Aggregate).Child
	for _, w := range workerCounts() {
		e := jit.NewParallel(poolOptions(b, w))
		b.Run(fmt.Sprintf("jit/aggregate/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(agg, cat)
			}
		})
		b.Run(fmt.Sprintf("jit/scan/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Run(scan, cat)
			}
		})
	}
}

// BenchmarkBreakers measures the parallelized pipeline breakers on the
// Figure 3 relation: the full parallel merge sort, the fused top-N
// (ORDER BY … LIMIT 100 — compare its ns/op and bytes/op against sort to
// see the O(k) bound), and the radix-partitioned hash-join build+probe,
// for the JiT engine across the worker sweep and the serial vectorized
// engine beside it. workers=1 is the serial engine, each series' scaling
// baseline.
func BenchmarkBreakers(b *testing.B) {
	setup := experiments.NewFig3Setup(1_000_000)
	cat := setup.Catalogs["column"]
	sortPlan := plan.Sort{
		Child: plan.Scan{
			Table:  "R",
			Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(800_000)},
			Cols:   []int{1, 2, 0},
		},
		Keys: []plan.SortKey{{Pos: 0}, {Pos: 1, Desc: true}},
	}
	plans := []struct {
		name string
		p    plan.Node
	}{
		{"sort", sortPlan},
		{"topn", plan.Limit{N: 100, Child: sortPlan}},
		{"join", plan.HashJoin{
			Left: plan.Scan{Table: "R", Cols: []int{0, 1}},
			Right: plan.Scan{
				Table:  "R",
				Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(100_000)},
				Cols:   []int{0, 2},
			},
			LeftKey:  0,
			RightKey: 0,
		}},
	}
	engines := map[string]exec.Engine{"vector/workers=1": vector.New()}
	names := []string{"vector/workers=1"}
	for _, w := range workerCounts() {
		name := fmt.Sprintf("jit/workers=%d", w)
		engines[name] = jit.NewParallel(poolOptions(b, w))
		names = append(names, name)
	}
	for _, spec := range plans {
		for _, name := range names {
			e := engines[name]
			b.Run(spec.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Run(spec.p, cat)
				}
			})
		}
	}
}

// BenchmarkScanMaterialize isolates the result path: a full-table
// four-column scan materialized to a result set. allocs/op is the headline
// number — word chunks turn one heap slice per row into one per 256 KB
// chunk.
func BenchmarkScanMaterialize(b *testing.B) {
	setup := experiments.NewFig3Setup(1_000_000)
	cat := setup.Catalogs["column"]
	scan := plan.Scan{Table: "R", Cols: []int{1, 2, 3, 4}}
	for _, e := range []exec.Engine{jit.New(), vector.New()} {
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Run(scan, cat)
			}
		})
	}
}

// BenchmarkFig06 regenerates Figure 6's measurement side: replaying
// s_trav_cr address streams against the simulated hierarchy.
func BenchmarkFig06(b *testing.B) {
	geo := mem.TableIII()
	for _, s := range []float64{0.01, 0.1, 0.5, 1.0} {
		atom := pattern.STravCR{N: 1 << 18, W: 16, U: 16, S: s}
		b.Run(fmt.Sprintf("sel=%g", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := mem.NewHierarchy(geo)
				pattern.Simulate(atom, h, 42)
			}
		})
	}
	b.Run("predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			costmodel.MissesOf(pattern.STravCR{N: 1 << 18, W: 16, U: 16, S: 0.1}, geo)
		}
	})
}

// BenchmarkFig08 regenerates Figure 8: cycles/access plateaus per region
// size (the ns/op of each sub-benchmark is proportional to the simulated
// access cost at that region size).
func BenchmarkFig08(b *testing.B) {
	geo := mem.TableIII()
	for _, region := range []int64{16 << 10, 128 << 10, 4 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("region=%dKB", region>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Fig8Chase(region, 100_000, geo, 7)
			}
		})
	}
}

// BenchmarkFig09 regenerates Figure 9: SAP-SD queries under the JiT and
// HYRISE-style processors on row, column and hybrid layouts.
func BenchmarkFig09(b *testing.B) {
	setup := experiments.NewFig9Setup(5000)
	for _, e := range experiments.Fig9ProcessorsOpt(experiments.Options{}) {
		for _, layout := range []string{"row", "column", "hybrid"} {
			cat := setup.Catalogs[layout]
			for qi, p := range setup.Queries.Plans {
				if qi == 5 {
					continue // the mutating Q6 is covered by BenchmarkFig10
				}
				q := p
				b.Run(fmt.Sprintf("%s/%s/Q%d", e.Name(), layout, qi+1), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e.Run(q, cat)
					}
				})
			}
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: the index-sensitive SAP-SD
// queries with and without indexes (JiT processor).
func BenchmarkFig10(b *testing.B) {
	for _, variant := range []string{"unindexed", "indexed"} {
		setup := experiments.NewFig9Setup(5000)
		if variant == "indexed" {
			for _, l := range []string{"row", "column", "hybrid"} {
				sapsd.RegisterIndexes(setup.Catalogs[l])
			}
		}
		engine := jit.New()
		for _, l := range []string{"row", "column", "hybrid"} {
			cat := setup.Catalogs[l]
			for _, spec := range []struct {
				name string
				ix   int
			}{{"Q7", 6}, {"Q8", 7}} {
				q := setup.Queries.Plans[spec.ix]
				b.Run(fmt.Sprintf("%s/%s/%s", variant, l, spec.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						engine.Run(q, cat)
					}
				})
			}
			b.Run(fmt.Sprintf("%s/%s/Q6-insert", variant, l), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					engine.Run(setup.Data.InsertPlan(1_000_000+i), cat)
				}
			})
		}
	}
}

// BenchmarkFig11 regenerates Figure 11: CH-benchmark analytical queries
// on row, column and hybrid layouts (JiT processor).
func BenchmarkFig11(b *testing.B) {
	cfg := chbench.Config{Warehouses: 2, DistrictsPerW: 10, CustomersPerD: 150, OrdersPerD: 150, Items: 1000, Suppliers: 100, Seed: 1}
	setup := experiments.NewFig11Setup(cfg, 500)
	engine := jit.New()
	for _, l := range []string{"row", "column", "hybrid"} {
		cat := setup.Catalogs[l]
		for _, qi := range chbench.QueryOrder {
			q := setup.Queries[qi]
			b.Run(fmt.Sprintf("%s/Q%d", l, qi), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					engine.Run(q, cat)
				}
			})
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: the CNET catalog queries on row,
// column and hybrid layouts (JiT processor; weight by Table V frequencies
// when reading the results).
func BenchmarkFig12(b *testing.B) {
	cfg := cnet.Config{Products: 50_000, Attrs: 200, Categories: 40, MeanSparse: 6, Seed: 1}
	setup := experiments.NewFig12Setup(cfg)
	engine := jit.New()
	for _, l := range []string{"row", "column", "hybrid"} {
		cat := setup.Catalogs[l]
		for qi := 1; qi <= 4; qi++ {
			q := setup.Queries[qi]
			b.Run(fmt.Sprintf("%s/Q%d-freq%g", l, qi, cnet.Frequencies[qi]), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					engine.Run(q, cat)
				}
			})
		}
	}
}

// BenchmarkAblationVectorVsJit reproduces the vectorization-vs-compilation
// comparison (Sompolski et al. [32], which the paper cites for Figure 3's
// selectivity behaviour) on the example query.
func BenchmarkAblationVectorVsJit(b *testing.B) {
	setup := experiments.NewFig3Setup(500_000)
	engines := map[string]interface {
		Run(plan.Node, *plan.Catalog) *result.Set
	}{
		"vector": vector.New(),
		"jit":    jit.New(),
	}
	for _, name := range []string{"vector", "jit"} {
		e := engines[name]
		for _, s := range []float64{0.001, 0.1, 1.0} {
			q := setup.Query(s)
			cat := setup.Catalogs["column"]
			b.Run(fmt.Sprintf("%s/sel=%g", name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.Run(q, cat)
				}
			})
		}
	}
}

// BenchmarkAblationSparse compares the paper's proposed key-value storage
// for sparse data against dense scans on the CNET catalog shape.
func BenchmarkAblationSparse(b *testing.B) {
	d := cnet.Generate(cnet.Config{Products: 50_000, Attrs: 200, Categories: 40, MeanSparse: 6, Seed: 2})
	rel := d.Products
	store := sparse.FromRelation(rel)
	attr := 100
	b.Run("dense/sum-sparse-attr", func(b *testing.B) {
		a := rel.Access(attr)
		for i := 0; i < b.N; i++ {
			var sum int64
			for row := 0; row < rel.Rows(); row++ {
				if v := a.Data[row*a.Stride+a.Off]; v != storage.Null {
					sum += storage.DecodeInt(v)
				}
			}
		}
	})
	b.Run("sparse/sum-sparse-attr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.SumAttr(attr)
		}
	})
	b.Run("dense/point-fetch", func(b *testing.B) {
		buf := make([]storage.Word, rel.Schema.Width())
		for i := 0; i < b.N; i++ {
			rel.RowValues(i%rel.Rows(), buf)
		}
	})
	b.Run("sparse/point-fetch", func(b *testing.B) {
		var buf []storage.Word
		for i := 0; i < b.N; i++ {
			buf = store.MaterializeRow(i%rel.Rows(), buf)
		}
	})
}

// BenchmarkTable4 measures the layout optimizer itself: cut derivation
// plus the BPi search on the ADRC table.
func BenchmarkTable4(b *testing.B) {
	rep := experiments.Table4(experiments.Options{Quick: true})
	if len(rep.Rows) == 0 {
		b.Fatal("table4 report empty")
	}
	b.Run("bpi-adrc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.Table4(experiments.Options{Quick: true})
		}
	})
}
