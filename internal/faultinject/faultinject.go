// Package faultinject is the deterministic fault-injection harness for
// the replication and durability paths: named failpoints compiled into
// production seams (the WAL commit, the checkpoint write) and an
// injectable http.RoundTripper that drops, delays, truncates or rewrites
// responses on the wire.
//
// Failpoints are free when disarmed — Hit is one atomic load — so the
// seams stay in release builds and tests exercise the exact code paths
// production runs: a failed fsync, a torn stream, a primary that stops
// answering. Tests arm a point with Enable and must call the function it
// returns when done (t.Cleanup takes it as it is); the registry is
// process-global, so fault tests cannot run in parallel with each other.
package faultinject

import (
	"sync"
	"sync/atomic"
)

var (
	// armed counts enabled failpoints; Hit's fast path is a single load
	// of it, so a disarmed seam costs nothing measurable.
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]func() error{}
)

// Enable arms the named failpoint: every Hit(name) calls f and returns
// its result until the returned function disarms the point. Re-enabling
// replaces the hook; disarming twice is a no-op.
func Enable(name string, f func() error) (disarm func()) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = f
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := points[name]; ok {
			delete(points, name)
			armed.Add(-1)
		}
	}
}

// Hit fires the named failpoint: nil when disarmed (the fast path —
// one atomic load), otherwise whatever the armed hook returns.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	f := points[name]
	mu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}
