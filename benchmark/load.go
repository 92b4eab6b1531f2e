package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is one keep-alive connection to the served system.
type client struct {
	hc  *http.Client
	url string
	buf []byte
	// traced marks the client's requests for the tap, so that with a
	// recorder installed only the traced pass's own requests are spanned.
	traced bool
}

// tracedHeader is set on requests the tap should span.
const tracedHeader = "X-Bench-Traced"

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url: url,
		buf: make([]byte, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// tailLen bytes of a reply are kept while the rest drains: enough for the
// trailing `"rowCount":N,"micros":M}`.
const tailLen = 64

// do posts one body, drains the reply without decoding it and returns the
// reply's rowCount and size. Anything but a 200 with a rowCount is an error.
func (c *client) do(body []byte) (rowCount, size int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if c.traced {
		req.Header.Set(tracedHeader, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	keep := 0
	for {
		n, rerr := resp.Body.Read(c.buf[keep:])
		size += n
		if m := keep + n; m > tailLen {
			copy(c.buf, c.buf[m-tailLen:m])
			keep = tailLen
		} else {
			keep = m
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return 0, size, rerr
		}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, size, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf[:keep]))
	}
	rowCount, ok := scanRowCount(c.buf[:keep])
	if !ok {
		return 0, size, fmt.Errorf("reply carries no rowCount: %q", c.buf[:keep])
	}
	return rowCount, size, nil
}

// send posts a request and checks the reply's row count against the one
// the correctness gate established.
func (c *client) send(r request) error {
	rows, _, err := c.do(r.body)
	if err == nil && rows != r.wantRows {
		err = fmt.Errorf("rowCount %d, want %d", rows, r.wantRows)
	}
	if err != nil {
		return fmt.Errorf("plan %s: %w", r.body, err)
	}
	return nil
}

// scanRowCount finds the last `"rowCount":N` in a reply's tail.
func scanRowCount(tail []byte) (int, bool) {
	key := []byte(`"rowCount":`)
	i := bytes.LastIndex(tail, key)
	if i < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, b := range tail[i+len(key):] {
		if b < '0' || b > '9' {
			break
		}
		n = n*10 + int(b-'0')
		digits++
	}
	return n, digits > 0
}

// sample is one completed request: when it completed and how long the
// caller waited, both in nanoseconds (done counts from the window's start).
type sample struct{ done, lat int64 }

// loopResult is what one load-generating goroutine saw.
type loopResult struct {
	samples   []sample
	late      []int64 // open loop only: how long after its due time each request was sent
	attempted int
	failed    int
	firstErr  error
	acked     int // inserts acknowledged
}

func (r *loopResult) note(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// closedLoop sends the next request only after the previous reply has been
// drained, cycling through reqs from offset, until dur has passed.
func closedLoop(c *client, reqs func(i int) request, offset int, start time.Time, dur time.Duration) loopResult {
	res := loopResult{samples: make([]sample, 0, 1<<19)}
	for i := offset; ; i++ {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			return res
		}
		r := reqs(i)
		err := c.send(r)
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.note(err)
			continue
		}
		res.samples = append(res.samples, sample{done: int64(t1.Sub(start)), lat: int64(t1.Sub(t0))})
		if r.insert() {
			res.acked++
		}
	}
}

// openLoop sends on a fixed schedule whatever the replies do. Each request
// is timed from when it was due, so a stall is charged to every request it
// delays; late records how far behind schedule the generator ran. It ends
// after dur, or earlier once stop is set.
func openLoop(c *client, reqs func(i int) request, perSecond int, start time.Time, dur time.Duration, stop *atomic.Bool) loopResult {
	interval := time.Second / time.Duration(perSecond)
	res := loopResult{}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur || stop.Load() {
			return res
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		err := c.send(reqs(i))
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.note(err)
			continue
		}
		res.samples = append(res.samples, sample{done: int64(t1.Sub(start)), lat: int64(t1.Sub(due))})
		res.late = append(res.late, int64(sent.Sub(due)))
		res.acked++
	}
}

// window is what one measured window saw.
type window struct {
	clients loopResult // the closed-loop clients, merged
	writer  loopResult // the open-loop writer; zero without one
	liveMax int        // highest core.DB.LiveVersions() seen
}

// drive runs one workload's traffic for dur. Beside the load generators one
// goroutine samples the MVCC backlog every 50 ms.
func drive(e *env, wl *workload, d *dataset, dur time.Duration) window {
	reads := func(i int) request { return e.reqs[i%len(e.reqs)] }
	inserts := func(i int) request { return e.insertRequest(d, i) }
	db := e.svc.Unwrap()

	win := window{liveMax: db.LiveVersions()}
	var wg, sampling sync.WaitGroup
	stop := make(chan struct{})
	results := make([]loopResult, wl.clients)
	start := time.Now()
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				win.liveMax = max(win.liveMax, db.LiveVersions())
			}
		}
	}()
	for k := 0; k < wl.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(e.url)
			defer c.close()
			if len(wl.reads) == 0 {
				results[k] = closedLoop(c, inserts, 0, start, dur)
				return
			}
			// Clients start at different plans so they do not move in step.
			results[k] = closedLoop(c, reads, k*len(e.reqs)/wl.clients, start, dur)
		}()
	}
	if wl.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(e.url)
			defer c.close()
			win.writer = openLoop(c, inserts, wl.writeRate, start, dur, new(atomic.Bool))
		}()
	}
	wg.Wait()
	close(stop)
	sampling.Wait()

	for _, r := range results {
		win.clients.samples = append(win.clients.samples, r.samples...)
		win.clients.attempted += r.attempted
		win.clients.failed += r.failed
		win.clients.acked += r.acked
		if win.clients.firstErr == nil {
			win.clients.firstErr = r.firstErr
		}
	}
	sort.Slice(win.clients.samples, func(i, j int) bool { return win.clients.samples[i].done < win.clients.samples[j].done })
	e.acked.Add(int64(win.clients.acked + win.writer.acked))
	return win
}
