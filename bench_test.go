// Package repro's root benchmark suite times the paper's evaluation
// section as Go benchmarks. A timed figure (Figures 3 and 9-12, and the
// sparse-storage ablation) is one list of cells that internal/experiments
// builds once; its benchmark runs one sub-benchmark per cell, the same
// cells cmd/benchrunner's report and the shape tests time. The other
// benchmarks time what no report does: the simulator (Figures 6 and 8),
// the layout optimizer (Table 4), the morsel scheduler, the pipeline
// breakers and the result path. Run
//
//	go test -run xxx -bench=. -benchmem
//
// for everything, or select one artefact, e.g.
//
//	go test -run xxx -bench BenchmarkFig03
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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
	"repro/internal/storage"
)

// benchFigure runs one sub-benchmark per cell of a timed figure at its
// full size, in the clock's order, each after a collection and one
// untimed run as experiments.Time does, and reports ns per execution of
// what the figure plots.
func benchFigure(b *testing.B, figure func(experiments.Options) ([]experiments.Cell, func(map[string]time.Duration) *experiments.Report)) {
	cells, _ := figure(experiments.Options{})
	for _, c := range experiments.Order(cells) {
		b.Run(c.Name(), func(b *testing.B) {
			runtime.GC()
			c.Run()
			for b.Loop() {
				c.Run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Execs), "ns/op")
		})
	}
}

// BenchmarkFig03 times Figure 3: the example query under every processing
// model and storage layout across the selectivity sweep.
func BenchmarkFig03(b *testing.B) { benchFigure(b, experiments.Fig3Cells) }

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
// see the O(k) bound), and the hash join, whose build fills an
// index.HashIndex over the 1M build rows (radix-partitioned by home slot
// on more than one worker) and whose probe looks up 100K keys in it,
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

// BenchmarkFig09 times Figure 9: SAP-SD queries under the JiT and
// HYRISE-style processors on row, column and hybrid layouts.
func BenchmarkFig09(b *testing.B) { benchFigure(b, experiments.Fig9Cells) }

// BenchmarkFig10 times Figure 10: the index-sensitive SAP-SD queries with
// and without indexes (JiT processor).
func BenchmarkFig10(b *testing.B) { benchFigure(b, experiments.Fig10Cells) }

// BenchmarkFig11 times Figure 11: CH-benchmark analytical queries on row,
// column and hybrid layouts (JiT processor).
func BenchmarkFig11(b *testing.B) { benchFigure(b, experiments.Fig11Cells) }

// BenchmarkFig12 times Figure 12: the CNET catalog queries on row, column
// and hybrid layouts (JiT processor), unweighted; the Q4 cells report per
// prepared execution over distinct ids.
func BenchmarkFig12(b *testing.B) { benchFigure(b, experiments.Fig12Cells) }

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

// BenchmarkAblationSparse times the sparse-storage ablation: dense and
// key-value storage on the CNET catalog shape.
func BenchmarkAblationSparse(b *testing.B) { benchFigure(b, experiments.AblationSparseCells) }

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
