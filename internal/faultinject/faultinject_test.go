package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestFailpointLifecycle(t *testing.T) {
	if err := Hit("x"); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
	boom := errors.New("boom")
	disarm := Enable("x", func() error { return boom })
	defer disarm()
	if err := Hit("x"); !errors.Is(err, boom) {
		t.Fatalf("armed failpoint returned %v, want boom", err)
	}
	if err := Hit("y"); err != nil {
		t.Fatalf("unrelated failpoint fired: %v", err)
	}
	disarm()
	if err := Hit("x"); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
	// Disarming twice is a no-op, and re-enabling replaces the hook.
	disarm()
	Enable("a", func() error { return boom })
	disarmA := Enable("a", func() error { return nil })
	if err := Hit("a"); err != nil {
		t.Fatalf("re-enabled failpoint ran the replaced hook: %v", err)
	}
	disarmA()
	if armed.Load() != 0 {
		t.Fatalf("armed count = %d after disarming every point, want 0", armed.Load())
	}
}

// TestHookRunsOnEveryHit: Hit calls the armed hook each time, so a hook
// that fails its first n hits models a transient fault.
func TestHookRunsOnEveryHit(t *testing.T) {
	boom := errors.New("transient")
	hits := 0
	t.Cleanup(Enable("n", func() error {
		if hits++; hits <= 2 {
			return boom
		}
		return nil
	}))
	for i := 0; i < 2; i++ {
		if err := Hit("n"); !errors.Is(err, boom) {
			t.Fatalf("hit %d: %v, want transient", i, err)
		}
	}
	if err := Hit("n"); err != nil {
		t.Fatalf("hook kept failing past its budget: %v", err)
	}
}

func TestTransportRules(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("hello-world"))
	}))
	defer srv.Close()

	ft := &Transport{}
	drop := ft.Add(&Rule{Path: "/gone", Drop: true, Count: 1})
	status := ft.Add(&Rule{Path: "/teapot", Status: http.StatusTeapot})
	trunc := ft.Add(&Rule{Path: "/cut", Count: 2, Mutate: func(b []byte) []byte { return b[:5] }})
	hc := &http.Client{Transport: ft}

	// Drop fires once, then the request goes through.
	if _, err := hc.Get(srv.URL + "/gone"); err == nil {
		t.Fatal("dropped request succeeded")
	}
	resp, err := hc.Get(srv.URL + "/gone")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("after count exhausted: %v %v", err, resp)
	}
	resp.Body.Close()

	// Status short-circuits without touching the server.
	resp, err = hc.Get(srv.URL + "/teapot")
	if err != nil || resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status rule: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Mutate rewrites the body.
	resp, err = hc.Get(srv.URL + "/cut")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello" {
		t.Fatalf("mutated body = %q, want %q", body, "hello")
	}

	// Unmatched paths pass through untouched.
	resp, err = hc.Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello-world" {
		t.Fatalf("clean body = %q", body)
	}

	if drop.Hits() != 1 || status.Hits() == 0 || trunc.Hits() != 1 {
		t.Fatalf("hit counts: drop=%d status=%d trunc=%d", drop.Hits(), status.Hits(), trunc.Hits())
	}
}
