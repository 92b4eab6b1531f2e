package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The names in BENCHMARK.json are the ones the program prints, with the
// same units and directions, and every bound is within the benchmark's own
// limit.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloadNames))
	}
	d := generate(1, 100, 100)
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		wl, err := workloadByName(w.Name, d)
		if err != nil {
			t.Error(err)
		} else if w.Why != wl.why {
			t.Errorf("workload %s: BENCHMARK.json's why differs from the program's", w.Name)
		}
	}
	check := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
		}
		for i, dm := range declared {
			def := defs[i]
			better := map[bool]string{true: "higher", false: "lower"}[def.higher]
			if dm.Name != def.name || dm.Unit != def.unit || dm.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, dm, def)
			}
			if !nameRE.MatchString(dm.Name) {
				t.Errorf("%s metric name %q is not made of letters, digits, _ . -", kind, dm.Name)
			}
			if bounded && (dm.Bound <= 0 || dm.Bound > maxBound) {
				t.Errorf("%s metric %s: bound %v is outside (0, %v]", kind, dm.Name, dm.Bound, maxBound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestQuickRunStructure runs every workload in -quick mode and checks the
// shape of what comes out: the declared metrics and no others, span files
// that parse, children inside their parents. It asserts no timing, so it
// cannot fail because the machine is busy.
func TestQuickRunStructure(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run with fewer than 2 CPUs")
	}
	m := readManifest(t)
	cfg, err := newConfig(1, 1, -1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			out, err := runWorkload(cfg, name)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%d requests attempted, %d failed", out.attempted, out.failed)
			}
			for trace, declared := range map[int][]manifestMetric{0: m.EndToEnd, 1: m.PerLayer} {
				rep := out.report(trace)
				var got, want []string
				for n, v := range rep.Metrics {
					got = append(got, n)
					if !nameRE.MatchString(n) {
						t.Errorf("metric name %q", n)
					}
					if v.Unit == "" {
						t.Errorf("metric %s has no unit", n)
					}
				}
				for _, dm := range declared {
					want = append(want, dm.Name)
					if trace == 0 && rep.Metrics[dm.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want above 0", dm.Name, rep.Metrics[dm.Name].Value)
					}
				}
				sort.Strings(got)
				sort.Strings(want)
				if len(got) != len(want) {
					t.Fatalf("-trace %d reports %v, BENCHMARK.json declares %v", trace, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("-trace %d reports %v, BENCHMARK.json declares %v", trace, got, want)
					}
				}
			}
			checkSpanFile(t, filepath.Join(cfg.outDir, "trace-"+name+".json"))
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if !nameRE.MatchString(s.Name) {
			t.Errorf("span name %q", s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) names a parent %d that is not in the file", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s, %d..%d) lies outside its parent %s (%d..%d)", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Req != p.Req {
			t.Errorf("span %d (%s) has request id %d, its parent %d", s.ID, s.Name, s.Req, p.Req)
		}
	}
	if roots == 0 {
		t.Errorf("%s has no root span", path)
	}
}
