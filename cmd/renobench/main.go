// Command renobench regenerates the tables and figures of the RENO paper's
// evaluation (Section 4). Each figure prints as a text table whose rows and
// series correspond to the paper's bars, under a "==== <title> ===="
// header and followed by its "(<title> in <duration>)" timing line.
//
// Usage:
//
//	renobench -fig mix          # Section 4.2 instruction-mix table
//	renobench -fig 8            # Figure 8: eliminations + speedups
//	renobench -fig 9            # Figure 9: critical-path breakdowns
//	renobench -fig 10           # Figure 10: CF vs CSE+RA division of labor
//	renobench -fig 11           # Figure 11: register-file and width downsizing
//	renobench -fig 12           # Figure 12: 2-cycle scheduling loop
//	renobench -fig cf-latency   # Section 3.3 fusion-latency ablation
//	renobench -fig all          # everything, in the order above
//
// The keys and their order are harness.Figures; an unknown key exits 2.
// -scale and -max trade runtime for measurement length.
//
// The simulator's own speed is measured by the repository benchmark
// (BENCHMARK.json, perfbench/), not here; see docs/benchmarking.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reno/internal/harness"
)

func main() {
	var keys []string
	for _, f := range harness.Figures {
		keys = append(keys, f.Key)
	}
	// The flag defaults are the paper's run settings, owned by the harness.
	opts := harness.DefaultOptions()
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(keys, ", ")+", all")
	flag.Float64Var(&opts.Scale, "scale", opts.Scale, "workload scale factor (<= 0 means 1.0)")
	flag.Uint64Var(&opts.MaxInsts, "max", opts.MaxInsts, "timed instructions per run (0 = to completion)")
	serial := flag.Bool("serial", !opts.Parallel, "disable parallel simulation")
	flag.IntVar(&opts.Workers, "workers", opts.Workers, "sweep pool size (0 = GOMAXPROCS; ignored with -serial)")
	flag.DurationVar(&opts.Timeout, "timeout", opts.Timeout, "per-run wall-clock budget (0 = none)")
	flag.Parse()
	opts.Parallel = !*serial

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := os.Stdout

	did := false
	for _, f := range harness.Figures {
		if *fig != "all" && *fig != f.Key {
			continue
		}
		did = true
		if ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		fmt.Fprintf(w, "==== %s ====\n", f.Title)
		f.Run(ctx, w, opts)
		fmt.Fprintf(w, "(%s in %s)\n\n", f.Title, time.Since(t0).Truncate(time.Millisecond))
	}
	if !did {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "renobench: interrupted")
		os.Exit(130)
	}
}
