// Command benchrunner regenerates the paper's evaluation artefacts and
// nothing else: Figures 3, 6 and 8-12, Tables 3-5 and three ablations,
// each one experiment that can be run individually or as a suite. The
// served system is measured elsewhere, by go test -bench and by the HTTP
// workloads that BENCHMARK.json declares.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp fig3            # one experiment, paper-scale
//	benchrunner -exp fig9 -quick     # smaller data sets
//	benchrunner -all -quick          # the whole evaluation section
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/exec/par"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected for testing: argv without the
// program name, and the two output streams. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id to run (see -list)")
		all     = fs.Bool("all", false, "run every experiment")
		quick   = fs.Bool("quick", false, "shrink data sets for a fast pass")
		list    = fs.Bool("list", false, "list experiment ids")
		workers = fs.Int("workers", 0, "size of the worker pool the JiT engine runs on (0 or 1 = serial, as the paper measures; -1 = all cores)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:", strings.Join(experiments.IDs(), " "))
		return 0
	}
	opt := experiments.Options{Quick: *quick}
	if *workers < 0 || *workers > 1 {
		pool := par.NewPool(max(*workers, 0)) // 0 = GOMAXPROCS
		defer pool.Close()
		opt.Par = par.WithPool(pool)
	}
	switch {
	case *all:
		for _, rep := range experiments.All(opt) {
			fmt.Fprintln(stdout, rep.String())
		}
	case *exp != "":
		driver := experiments.ByID(*exp)
		if driver == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; available experiments:\n  %s\n",
				*exp, strings.Join(experiments.IDs(), "\n  "))
			return 1
		}
		start := time.Now()
		rep := driver(opt)
		fmt.Fprintln(stdout, rep.String())
		fmt.Fprintf(stdout, "(%s regenerated in %v)\n", *exp, time.Since(start).Round(time.Millisecond))
	default:
		fs.Usage()
		return 2
	}
	return 0
}
