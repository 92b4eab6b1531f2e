package experiments

import (
	"os"
	"sync"
	"testing"

	"repro/internal/exec/jit"
	"repro/internal/exec/par"
	"repro/internal/exec/result"
)

// testPools holds one pool per worker count, shared by every parallel
// test of the package and closed by TestMain.
var testPools = map[int]*par.Pool{}

// testPool returns the package's shared pool of the given size. Tests
// call it from their own goroutine, never from one they start.
func testPool(workers int) *par.Pool {
	if testPools[workers] == nil {
		testPools[workers] = par.NewPool(workers)
	}
	return testPools[workers]
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, pool := range testPools {
		pool.Close()
	}
	os.Exit(code)
}

// TestSharedPoolMatchesSerial runs the Figure 3 sweep for the parallel
// jit engine on ONE shared worker pool, with every (layout, selectivity)
// query issued concurrently — the serving configuration. Morsels from
// different queries interleave on the same workers; results must stay
// row-for-row identical to the serial engine's.
func TestSharedPoolMatchesSerial(t *testing.T) {
	setup := NewFig3Setup(30_000)
	// Small morsels force many morsels per query so concurrent jobs
	// actually interleave instead of running one-morsel-inline.
	parallel := jit.NewParallel(par.Options{Pool: testPool(4), MorselRows: 2048})

	var wg sync.WaitGroup
	for layout := range setup.Catalogs {
		for _, sel := range Fig3Selectivities {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := setup.Query(sel)
				cat := setup.Catalogs[layout]
				want := jit.New().Run(q, cat)
				got := parallel.Run(q, cat)
				if !result.Equal(want, got) {
					t.Errorf("jit/%s sel=%g: shared-pool result diverges from serial (%d vs %d rows)",
						layout, sel, got.Len(), want.Len())
				}
			}()
		}
	}
	wg.Wait()
}
