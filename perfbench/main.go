// Command perfbench is the repository's benchmark. It drives the simulator,
// the sweep engine and the renoserve service from outside, through their
// public Go functions and HTTP API, checks every output for identity, and
// prints its metrics by name with their units, ending with one JSON line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// Workloads (see LAYERS.md for why each exists):
//
//	paper        regenerate every table and figure, as renobench -fig all
//	screen_cold  a 714-cell functional screening grid into an empty store
//	serve_warm   one client resubmitting cached grids to a warm service
//
// --trace 0 prints the end-to-end metrics. --trace 1 records spans around
// every call into the program, runs the layer probe, prints the per-layer
// metrics, and writes the spans under .bench_build/perfbench/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. A pass takes 40 to 300 ms, short enough for the shared
// host's stalls to move a median of three by more than a quarter.
const setupRepeats = 15

// setupStart collects the garbage that earlier work left, so that a set-up
// pass does not pay for it, and returns the pass's start time.
func setupStart() time.Time {
	runtime.GC()
	return time.Now()
}

// maxProblems bounds how many failure descriptions a report keeps.
const maxProblems = 20

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig, *tracer) (*outcome, error){
	"paper":       runPaper,
	"screen_cold": runScreenCold,
	"serve_warm":  runServeWarm,
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // the checkout root (the working directory)
	tmp      string // scratch directory for stores, removed at exit
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string

	setups    []float64     // seconds per set-up pass
	latencies []float64     // seconds per completed operation
	measured  time.Duration // wall time of the measured loop
	allocMB   float64       // Go heap allocated during the measured loop
	peakRSSMB float64       // the process's resident high-water mark
}

// fail counts a failed operation and keeps its description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper, screen_cold, serve_warm")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long the measured loop runs")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	outDir := filepath.Join(root, ".bench_build", "perfbench")
	cfg := runConfig{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		root: root, tmp: filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid())),
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg, outDir)
	stop()
	if rerr := os.RemoveAll(cfg.tmp); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// run executes one workload run and writes its report.
func run(ctx context.Context, cfg runConfig, outDir string) (*result, error) {
	tr := newTracer(cfg.trace)
	t0 := time.Now()
	out, err := workloads[cfg.workload](ctx, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if len(out.latencies) == 0 {
		return nil, errors.New(cfg.workload + ": no operation completed")
	}

	var metrics map[string]metricValue
	var spans []span
	if cfg.trace {
		derived, err := probe(ctx, cfg, tr, out)
		if err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		spans = tr.snapshot()
		derived["trace.overhead_frac"] = tracingOverhead(len(spans), spanCost(), time.Since(t0))
		if metrics, err = layerMetrics(spans, derived); err != nil {
			return nil, err
		}
	} else {
		metrics = endToEndMetrics(out)
	}
	out.peakRSSMB = peakRSSMB()
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}

	prov := hostProvenance(cfg.root, cfg.tmp)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace)))
	if err := writeReport(base+".report.json", cfg, prov, res, out); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := writeSpans(base+".spans.json", spans); err != nil {
			return nil, err
		}
	}
	printHuman(cfg, prov, res, out)
	return res, nil
}

// writeReport writes the run's full record: provenance, settings, the
// result, the raw samples and any failures.
func writeReport(path string, cfg runConfig, prov provenance, res *result, out *outcome) error {
	data, err := json.MarshalIndent(struct {
		Workload   string     `json:"workload"`
		Seed       int64      `json:"seed"`
		Seconds    float64    `json:"seconds"`
		Trace      bool       `json:"trace"`
		Provenance provenance `json:"provenance"`
		Result     *result    `json:"result"`
		SetupS     []float64  `json:"setup_s_samples"`
		LatencyS   []float64  `json:"latency_s_samples"`
		MeasuredS  float64    `json:"measured_s"`
		PeakRSSMB  float64    `json:"peak_rss_mb"`
		Problems   []string   `json:"problems,omitempty"`
	}{cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, prov, res, out.setups, out.latencies, out.measured.Seconds(), out.peakRSSMB, out.problems}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printHuman prints provenance, failures and every metric with its unit,
// ahead of the result line.
func printHuman(cfg runConfig, prov provenance, res *result, out *outcome) {
	fmt.Printf("perfbench %s seed=%d seconds=%s trace=%d: %d operations, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, btoi(cfg.trace), res.Attempted, res.Failed)
	fmt.Printf("host: %s, %d CPUs (GOMAXPROCS %d), %s; store on %s; commit %s, source %.12s\n",
		prov.CPUModel, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.StoreFS, prov.Commit, prov.SourceSHA256)
	fmt.Printf("note: %s\n", prov.Model)
	for _, p := range out.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
