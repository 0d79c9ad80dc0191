// Command renosweep runs a declarative experiment grid on the bounded sweep
// worker pool and emits results as a reno.metrics/v1 envelope (JSON,
// optionally with a CSV convenience view). It is a thin flag parser over
// the public reno/sim facade (sim.ParseGrid / sim.RunGrid).
//
// The grid is the cross product benches × machines × renos × seeds, given
// either by flags or by a JSON spec file (see docs/sweep.md for the schema;
// docs/machines.md for the machine registry and inline spec objects):
//
//	renosweep -benches all -machines 4w,6w -renos BASE,RENO -o results.json
//	renosweep -grid grid.json -csv results.csv -progress
//	renosweep -validate grid.json      # parse + validate, run nothing
//	renosweep -list                    # registered benchmarks, machines, RENO configs
//
// Machine spec strings take colon-separated modifiers: "4w:p128" (128
// physical registers), "4w:i2t3" (2 int ALUs, 3-wide issue), "4w:s2"
// (2-cycle scheduling loop); version-2 grid files may instead use inline
// JSON objects overriding any configuration field. Every run carries a
// stable hash over its deterministic outcome, so results are diffable
// across worker counts and machines; -stable additionally zeroes
// wall-clock fields for byte-identical output. SIGINT/SIGTERM cancel the
// sweep promptly; interrupted runs are recorded as failed with partial
// statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reno/sim"
)

func renoNames() []string {
	var names []string
	for _, c := range sim.Configs() {
		names = append(names, c.Name)
	}
	return names
}

func main() {
	var (
		benches  = flag.String("benches", "all", "comma-separated benchmark names or suite aliases (all, SPECint, MediaBench, micro.<kernel>)")
		machines = flag.String("machines", "4w", "comma-separated machine specs (4w, 6w, with :p<N> :i<A>t<T> :s<N> modifiers)")
		renos    = flag.String("renos", "BASE,RENO", "comma-separated RENO configs ("+strings.Join(renoNames(), ", ")+")")
		seeds    = flag.String("seeds", "0", "comma-separated workload seed offsets")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		maxInsts = flag.Uint64("max", 300_000, "timed instructions per run (0 = to completion)")
		backend  = flag.String("backend", "", "simulation backend: detailed (default) or functional")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none; timed-out runs fail with partial stats)")
		gridPath = flag.String("grid", "", "JSON grid spec file (overrides the grid axis flags)")
		validate = flag.String("validate", "", "parse and validate this grid spec file, run nothing")
		list     = flag.Bool("list", false, "list registered benchmarks, machine specs, and RENO configs, run nothing")
		jsonOut  = flag.String("o", "-", "JSON output path (- = stdout)")
		csvOut   = flag.String("csv", "", "also write CSV to this path")
		stable   = flag.Bool("stable", false, "zero wall-clock fields for byte-identical output")
		progress = flag.Bool("progress", false, "print per-run progress to stderr")
		quiet    = flag.Bool("quiet", false, "suppress the summary line on stderr")
	)
	flag.Parse()
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	if *list {
		if err := sim.ListRegistered().WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *validate != "" {
		if err := validateSpec(os.Stdout, *validate); err != nil {
			fatal(err)
		}
		return
	}

	grid, err := buildGrid(*gridPath, *benches, *machines, *renos, *seeds, *backend, *scale, *maxInsts, setFlags)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := sim.GridOptions{Workers: *workers, Timeout: *timeout, Stable: *stable}
	if *progress {
		opts.Progress = func(p sim.Progress) {
			key := p.Bench + "/" + p.Tag
			if p.Err != "" {
				fmt.Fprintf(os.Stderr, "[%d/%d] %-28s ERROR %s\n", p.Done, p.Total, key, p.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-28s IPC %.3f elim %.1f%% hash %s\n",
				p.Done, p.Total, key, p.IPC, p.ElimTotal, p.RunHash)
		}
	}

	t0 := time.Now()
	gr, err := sim.RunGrid(ctx, grid, opts)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)

	rep, err := gr.Report()
	if err != nil {
		fatal(err)
	}
	rep.Tool = "renosweep"
	if err := writeTo(*jsonOut, rep.Encode); err != nil {
		fatal(err)
	}
	if *csvOut != "" {
		if err := writeTo(*csvOut, gr.WriteCSV); err != nil {
			fatal(err)
		}
	}

	s := gr.Summary()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d runs (%d failed), %d insts in %s (%.0f insts/s), mean IPC %.3f, %d audit warnings\n",
			s.Runs, s.Failed, s.Insts, elapsed.Truncate(time.Millisecond),
			float64(s.Insts)/elapsed.Seconds(), s.MeanIPC, s.Warnings)
		for _, w := range gr.Audit() {
			fmt.Fprintf(os.Stderr, "WARNING: %s\n", w)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "sweep: interrupted — partial results emitted")
		}
	}
	if s.Failed > 0 || s.Warnings > 0 {
		os.Exit(1)
	}
}

// validateSpec parses, validates, and plans a grid spec without running it,
// reporting what the sweep would do.
func validateSpec(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	g, err := sim.ParseGrid(data)
	if err != nil {
		return err
	}
	plan, err := g.Plan()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: ok (schema v%d): %d jobs, %d configurations: %s\n",
		path, plan.Version, plan.Jobs, len(plan.Configurations), strings.Join(plan.Configurations, ", "))
	return nil
}

// buildGrid assembles the grid from a spec file or the axis flags. With a
// spec file, an execution knob given explicitly on the command line
// overrides the file; otherwise the file's value stands — including an
// explicit "max_insts": 0 (run to completion), which is why presence on the
// command line is tracked via setFlags rather than by comparing against
// flag defaults.
func buildGrid(path, benches, machines, renos, seeds, backend string, scale float64, maxInsts uint64, setFlags map[string]bool) (*sim.Grid, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		g, err := sim.ParseGrid(data)
		if err != nil {
			return nil, err
		}
		if setFlags["scale"] {
			g.Scale = scale
		}
		if setFlags["max"] {
			g.MaxInsts = maxInsts
		}
		if setFlags["backend"] {
			g.Backend = backend
		}
		return g, nil
	}
	seedVals, err := parseSeeds(seeds)
	if err != nil {
		return nil, err
	}
	return &sim.Grid{
		Benches:  splitList(benches),
		Machines: splitList(machines),
		Configs:  splitList(renos),
		Seeds:    seedVals,
		Scale:    scale,
		MaxInsts: maxInsts,
		Backend:  backend,
	}, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeTo(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "renosweep: %v\n", err)
	os.Exit(2)
}
