package main

import (
	"strings"
	"testing"
)

func TestUnknownExperimentListsAndFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "fig99"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown -exp exited 0")
	}
	out := stderr.String()
	if !strings.Contains(out, `unknown experiment "fig99"`) {
		t.Fatalf("stderr does not name the bad experiment: %q", out)
	}
	// The full list must be offered, not just a hint to rerun with -list.
	for _, id := range []string{"fig3", "table4", "ablation-sparse"} {
		if !strings.Contains(out, id) {
			t.Fatalf("stderr does not list experiment %q: %q", id, out)
		}
	}
}

func TestListExperiments(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d (stderr: %s)", code, stderr.String())
	}
	// Exactly the paper's artefacts: the served system is measured by Go
	// benchmarks and BENCHMARK.json's workloads, not by experiments.
	want := "experiments: ablation-costfn ablation-cuts ablation-sparse fig10 fig11 fig12 fig3 fig6 fig8 fig9 table3 table4 table5\n"
	if got := stdout.String(); got != want {
		t.Fatalf("-list printed %q, want %q", got, want)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-exp") {
		t.Fatalf("usage not printed on -h: %q", stderr.String())
	}
}

func TestNoArgsUsage(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no-args exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-exp") {
		t.Fatalf("usage not printed: %q", stderr.String())
	}
}

func TestQuickExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still builds a 100k-row relation")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "table3", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("table3 -quick exited %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "table3") {
		t.Fatalf("report missing from stdout: %q", stdout.String())
	}
}
