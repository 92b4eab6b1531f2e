package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestRepliesWhileChunksRecycle: clients stream wide replies at once, on
// a two-worker service, while every reply's row chunks and row views come
// from the memory earlier replies released. Each reply is byte for byte
// the one a lone client got for its plan (micros aside). Under the race
// detector a released chunk is filled with a poison word, so a reply that
// read rows after their set was released, or rows of another reply, makes
// different bytes.
func TestRepliesWhileChunksRecycle(t *testing.T) {
	const rows = 30_000
	s := New(NewDemoDB(10), Config{Workers: 2})
	defer s.Close()
	if _, err := s.Load(LoadSpec{Table: "orders", Format: "csv", CreateSpec: ordersSpec}, bytes.NewReader(ordersCSV(rows))); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The reply up to its micros field, which differs from run to run.
	fetch := func(body string) ([]byte, error) {
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		i := bytes.LastIndex(b, []byte(`,"micros":`))
		if i < 0 {
			return nil, fmt.Errorf("no micros in %.200s", b)
		}
		return b[:i], nil
	}
	// Wide_result's shape (eight columns of every type) at sizes whose
	// chunks and views fall in different free-list classes.
	var bodies []string
	var want [][]byte
	for _, n := range []int{rows, 20_000, 9_000, 2_500} {
		body := fmt.Sprintf(`{"plan": {"op": "scan", "table": "orders",
			"filter": {"pred": "cmp", "attr": 0, "op": "<", "val": {"int": %d}},
			"cols": [0, 1, 2, 3, 8, 9, 10, 11]}}`, n)
		got, err := fetch(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte(fmt.Sprintf(`"rowCount":%d`, n))) {
			t.Fatalf("plan id < %d: reply does not hold %d rows", n, n)
		}
		bodies, want = append(bodies, body), append(want, got)
	}

	const clients, replies = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range replies {
				k := (c + r) % len(bodies)
				got, err := fetch(bodies[k])
				if err == nil && !bytes.Equal(got, want[k]) {
					err = fmt.Errorf("client %d, reply %d: %d bytes differ from the lone client's %d", c, r, len(got), len(want[k]))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
