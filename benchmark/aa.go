package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// maxBound is the widest regression bound a benchmark may declare.
const maxBound = 0.25

// declared is the part of BENCHMARK.json the A/A run checks against.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the workloads as two interleaved sets of n runs each
// (A, B, A, B, ...) of this same binary, one process per workload run, as
// the driver does. Every run uses the same seed, so what differs between
// runs is noise only. Per workload and metric it reports both medians, how
// much worse B is, the worst single-run deviation from its set's median,
// each set's quartile spread, and the bound the deviations derive. It fails
// if the sets' medians differ by more than the declared bound or if a
// declared bound exceeds maxBound. Where single runs stray further than
// the declared bound allows for, the pairing is marked unresolved: medians
// of several runs agree within the bound, one run against one run need not.
func runAA(cfg config, n int, names []string) error {
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, name := range names {
			values[s][name] = map[string][]float64{}
		}
	}
	for i := 0; i < n; i++ {
		for s := range values {
			for _, name := range names {
				fmt.Fprintf(os.Stderr, "aa: run %d/%d of set %c, %s\n", i+1, n, 'A'+s, name)
				rep, err := runChild(exe, name, cfg.seed, cfg.seconds, cfg.quick)
				if err != nil {
					return fmt.Errorf("set %c run %d, %s: %w", 'A'+s, i+1, name, err)
				}
				if !rep.Correct || rep.Failed > 0 {
					return fmt.Errorf("set %c run %d, %s: correct=%v, %d of %d requests failed", 'A'+s, i+1, name, rep.Correct, rep.Failed, rep.Attempted)
				}
				for metric, m := range rep.Metrics {
					values[s][name][metric] = append(values[s][name][metric], m.Value)
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# A/A stability\n\n")
	fmt.Fprintf(&b, "Written by `-aa %d`: two interleaved sets (A, B, A, B, ...) of %d runs of every workload\n", n, n)
	fmt.Fprintf(&b, "on one binary, one process per run, every run with seed %d.\n\n", cfg.seed)
	fmt.Fprintf(&b, "    %s\n\n", stamp(cfg))
	fmt.Fprintf(&b, "`B worse` is how much worse set B's median is than set A's. `worst run` is the largest\n")
	fmt.Fprintf(&b, "distance of any single run from its own set's median. `spread` is (Q3 - Q1) / median of a\n")
	fmt.Fprintf(&b, "set, quartiles as Python's `statistics.quantiles(v, n=4)`. `derived` is\n")
	fmt.Fprintf(&b, "max(0.05, 2 x worst run) rounded up to 0.01. `bound` is what BENCHMARK.json declares: the\n")
	fmt.Fprintf(&b, "widest `derived` of that metric over the workloads, but no more than %.2f, and for setup_s the\n", maxBound)
	fmt.Fprintf(&b, "widest bound declared. `unresolved` marks a pairing whose single runs stray further than its\n")
	fmt.Fprintf(&b, "bound allows for: there, compare medians of several runs, never one run with one run.\n\n")
	fmt.Fprintf(&b, "| workload | metric | median A | median B | B worse | worst run | spread A | spread B | derived | bound | |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")

	var failures []string
	widest := map[string][3]float64{} // per metric: |B worse|, spread, derived, each the widest over the workloads
	for _, name := range names {
		for _, def := range decl.EndToEnd {
			a, bb := values[0][name][def.Name], values[1][name][def.Name]
			if len(a) == 0 || len(bb) == 0 {
				return fmt.Errorf("%s: no run reported %s", name, def.Name)
			}
			worse := worseBy(median(a), median(bb), def.Better == "higher")
			worst := math.Max(worstDeviation(a), worstDeviation(bb))
			spread := math.Max(quartileSpread(a), quartileSpread(bb))
			derived := deriveBound(worst)
			w := widest[def.Name]
			widest[def.Name] = [3]float64{math.Max(w[0], math.Abs(worse)), math.Max(w[1], spread), math.Max(w[2], derived)}

			verdict := "ok"
			switch {
			case math.Abs(worse) > def.Bound:
				verdict = "SETS DIFFER"
				failures = append(failures, fmt.Sprintf("%s %s: the sets differ by %.1f%%, bound %.2f", name, def.Name, worse*100, def.Bound))
			case derived > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %.2f | %.2f | %s |\n",
				name, def.Name, sig(median(a)), sig(median(bb)), worse*100, worst*100,
				quartileSpread(a)*100, quartileSpread(bb)*100, derived, def.Bound, verdict)
		}
	}
	fmt.Fprintf(&b, "\n## Bounds\n\nThe widest value of each metric over the workloads, beside the declared bound:\n\n")
	fmt.Fprintf(&b, "| metric | sets differ by | spread | derived | declared |\n|---|---:|---:|---:|---:|\n")
	for _, def := range decl.EndToEnd {
		w := widest[def.Name]
		fmt.Fprintf(&b, "| %s | %.1f%% | %.1f%% | %.2f | %.2f |\n", def.Name, w[0]*100, w[1]*100, w[2], def.Bound)
		if def.Bound > maxBound {
			failures = append(failures, fmt.Sprintf("%s: declared bound %.2f exceeds %.2f", def.Name, def.Bound, maxBound))
		}
	}
	if len(failures) == 0 {
		fmt.Fprintf(&b, "\nVerdict: the two sets agree within every declared bound.\n")
	} else {
		fmt.Fprintf(&b, "\nVerdict: FAILED\n\n- %s\n", strings.Join(failures, "\n- "))
	}

	fmt.Print(b.String())
	if !cfg.quick {
		if err := os.WriteFile(filepath.Join(cfg.root, "benchmark", "STABILITY.md"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("A/A run failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// runChild runs one workload in a process of its own and returns the
// report on the last line of its output. The child is always waited for.
func runChild(exe, workload string, seed int64, seconds int, quick bool) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rep report
	if err != nil {
		return rep, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("last output line is not a report: %w", err)
	}
	return rep, nil
}

// sig prints a value with four significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
