// Command benchmark is the repository's benchmark: it serves the real
// service.Handler() on a loopback listener, drives it over HTTP with
// keep-alive clients from the same process, and reports five end-to-end
// metrics and a per-layer request budget for each of five workloads.
// README.md in this directory says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

var discardLogger = slog.New(slog.DiscardHandler)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int  // length of the measured window
	trace   int  // 0: end-to-end metrics only, 1: per-layer metrics only, -1: both
	quick   bool // structure smoke test: small tables, one-second window
	procs   int  // GOMAXPROCS, and the service's worker count
	root    string
	outDir  string

	ordersRows, recentRows int
	setups                 int // set-ups per run; setup_s is their median
	spinners               int // idle spinners running beside the workload, one per CPU
	tracedCap              int // upper limit on traced requests; 0 = the workload's own count
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name  = flag.String("workload", "", "run one workload (default: all five, one after another)")
		seed  = flag.Int64("seed", 1, "seed the inputs are generated from")
		secs  = flag.Int("seconds", 12, "length of the measured window in seconds")
		trace = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
		quick = flag.Bool("quick", false, "structure smoke test: 20k-row orders, 2k-row recent, one-second window, 50 traced requests")
		aa    = flag.Int("aa", 0, "A/A stability run: two interleaved sets of this many suite runs; writes benchmark/STABILITY.md")
		cpu   = flag.Int("spin", -1, "internal: be the idle spinner of this CPU")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *cpu >= 0 {
		return spin(*cpu)
	}

	cfg, err := newConfig(*seed, *secs, *trace, *quick)
	if err != nil {
		return err
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if *aa > 0 {
		cfg.spinners = runtime.NumCPU() // each child run starts its own
		return runAA(cfg, *aa, names)
	}

	var stop func()
	cfg.spinners, stop = startSpinners(runtime.NumCPU())
	defer stop()
	fmt.Println(stamp(cfg))
	for _, n := range names {
		out, err := runWorkload(cfg, n)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		out.print(os.Stdout)
		line, err := json.Marshal(out.report(cfg.trace))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	return nil
}

func newConfig(seed int64, seconds, trace int, quick bool) (config, error) {
	cfg := config{
		seed: seed, seconds: seconds, trace: trace, quick: quick,
		ordersRows: 2_000_000, recentRows: 100_000, setups: 3,
	}
	if trace < -1 || trace > 1 {
		return cfg, fmt.Errorf("-trace %d: want 0, 1 or -1", trace)
	}
	// The 1-CPU recordings are why the old BENCH_*.json numbers are
	// unusable: with one processor the clients, the server and the scan
	// workers only ever take turns.
	cfg.procs = min(runtime.NumCPU(), 4)
	if cfg.procs < 2 {
		return cfg, fmt.Errorf("%d CPU available; the benchmark needs GOMAXPROCS >= 2", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(cfg.procs)
	if trace == 1 {
		cfg.setups = 1 // setup_s is not a per-layer metric
	}
	if quick {
		cfg.ordersRows, cfg.recentRows, cfg.seconds, cfg.setups, cfg.tracedCap = 20_000, 2_000, 1, 1, 50
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds %d: want at least 1", cfg.seconds)
	}

	// The program runs from the checkout's root (run.sh) or from this
	// directory (go run, go test); BENCHMARK.json marks the root.
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err == nil {
			cfg.root = root
			cfg.outDir = filepath.Join(root, "benchmark", "out")
			return cfg, os.MkdirAll(cfg.outDir, 0o755)
		}
	}
	return cfg, fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

// stamp is the environment line every output carries.
func stamp(cfg config) string {
	return fmt.Sprintf("env: git=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d workers=%d seed=%d orders=%d recent=%d window=%ds setups=%d spinners=%d wal=%q",
		gitRevision(), runtime.Version(), cpuModel(), runtime.NumCPU(), cfg.procs, cfg.procs,
		cfg.seed, cfg.ordersRows, cfg.recentRows, cfg.seconds, cfg.setups, cfg.spinners, walPolicy)
}

// gitRevision is the revision the go command stamped into the binary; a
// checkout that is not a git repository has none.
func gitRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
