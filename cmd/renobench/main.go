// Command renobench regenerates the tables and figures of the RENO paper's
// evaluation (Section 4). Each figure prints as a text table whose rows and
// series correspond to the paper's bars.
//
// Usage:
//
//	renobench -fig 8            # Figure 8: eliminations + speedups
//	renobench -fig 9            # Figure 9: critical-path breakdowns
//	renobench -fig 10           # Figure 10: CF vs CSE+RA division of labor
//	renobench -fig 11           # Figure 11: register-file and width downsizing
//	renobench -fig 12           # Figure 12: 2-cycle scheduling loop
//	renobench -fig mix          # Section 4.2 instruction-mix table
//	renobench -fig cf-latency   # Section 3.3 fusion-latency ablation
//	renobench -fig all          # everything
//
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
	"syscall"
	"time"

	"reno/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 8, 9, 10, 11, 12, mix, cf-latency, all")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	maxInsts := flag.Uint64("max", 300_000, "timed instructions per run (0 = to completion)")
	serial := flag.Bool("serial", false, "disable parallel simulation")
	workers := flag.Int("workers", 0, "sweep pool size (0 = GOMAXPROCS; ignored with -serial)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := harness.Options{Scale: *scale, MaxInsts: *maxInsts, Parallel: !*serial, Workers: *workers, Timeout: *timeout}
	w := os.Stdout

	run := func(name string, f func()) {
		if ctx.Err() != nil {
			return
		}
		t0 := time.Now()
		fmt.Fprintf(w, "==== %s ====\n", name)
		f()
		fmt.Fprintf(w, "(%s in %s)\n\n", name, time.Since(t0).Truncate(time.Millisecond))
	}

	did := false
	want := func(k string) bool {
		if *fig == "all" || *fig == k {
			did = true
			return true
		}
		return false
	}
	if want("mix") {
		run("Instruction mix (Section 4.2)", func() { harness.TableMix(ctx, w, opts) })
	}
	if want("8") {
		run("Figure 8", func() { harness.Fig8(ctx, w, opts) })
	}
	if want("9") {
		run("Figure 9", func() { harness.Fig9(ctx, w, opts) })
	}
	if want("10") {
		run("Figure 10", func() { harness.Fig10(ctx, w, opts) })
	}
	if want("11") {
		run("Figure 11", func() { harness.Fig11(ctx, w, opts) })
	}
	if want("12") {
		run("Figure 12", func() { harness.Fig12(ctx, w, opts) })
	}
	if want("cf-latency") {
		run("CF fusion-latency ablation (Section 3.3)", func() { harness.CFLatencyAblation(ctx, w, opts) })
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
