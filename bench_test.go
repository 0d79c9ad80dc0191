// Package repro's root benchmarks regenerate every table and figure of the
// RENO paper's evaluation under `go test -bench`. Each benchmark prints its
// tables once (on the first iteration) and reports simulated instructions
// per second so regressions in simulator throughput are visible too.
//
// The full-size regeneration lives in cmd/renobench; these benches run at
// reduced scale so `go test -bench=.` completes in minutes.
package repro_test

import (
	"context"
	"io"
	"os"
	"sync"
	"testing"

	"reno/internal/backend"
	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/harness"
	"reno/internal/pipeline"
	"reno/internal/reno"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// benchOpts keeps bench runtime modest; renobench runs the full scale. All
// figure benchmarks except Figure 9 and the instruction mix execute as
// sweep grids on the worker pool.
func benchOpts() harness.Options {
	return harness.Options{Scale: 0.4, MaxInsts: 60_000, Parallel: true}
}

var printOnce sync.Map

// out returns os.Stdout the first time a benchmark runs, io.Discard after,
// so -benchtime doesn't repeat the tables.
func out(name string) io.Writer {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return io.Discard
	}
	return os.Stdout
}

// BenchmarkTableMix regenerates the Section 4.2 instruction-mix statistics
// (E8: the 12%/17% register-immediate-addition claim).
func BenchmarkTableMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.TableMix(context.Background(), out("mix"), benchOpts())
	}
}

// BenchmarkFig8Eliminations and BenchmarkFig8Speedups regenerate Figure 8
// (E1/E2): per-benchmark elimination rates and speedups at 4- and 6-wide.
func BenchmarkFig8Eliminations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Fig8(context.Background(), out("fig8"), benchOpts())
	}
}

// BenchmarkFig9CriticalPath regenerates Figure 9 (E3): critical-path
// breakdowns under BASE, ME+CF, and full RENO.
func BenchmarkFig9CriticalPath(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.25
	for i := 0; i < b.N; i++ {
		harness.Fig9(context.Background(), out("fig9"), opts)
	}
}

// BenchmarkFig10Cooperation regenerates Figure 10 (E4/E9): the division of
// labor between RENO.CF and RENO.CSE+RA, with IT bandwidth accounting.
func BenchmarkFig10Cooperation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Fig10(context.Background(), out("fig10"), benchOpts())
	}
}

// BenchmarkFig11Registers regenerates Figure 11 (E5/E6): RENO compensating
// for smaller register files and narrower issue.
func BenchmarkFig11Registers(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.25
	for i := 0; i < b.N; i++ {
		harness.Fig11(context.Background(), out("fig11"), opts)
	}
}

// BenchmarkFig12Scheduler regenerates Figure 12 (E7): tolerating a 2-cycle
// wakeup-select loop.
func BenchmarkFig12Scheduler(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.25
	for i := 0; i < b.N; i++ {
		harness.Fig12(context.Background(), out("fig12"), opts)
	}
}

// BenchmarkCFLatencyAblation regenerates the Section 3.3 fused-operation
// latency ablation (E10).
func BenchmarkCFLatencyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.CFLatencyAblation(context.Background(), out("cflat"), benchOpts())
	}
}

// BenchmarkSweepGrid runs an 8-benchmark × 4-configuration grid through the
// sweep pool directly (the subsystem every figure now runs on) and reports
// end-to-end simulated instructions per wall second, including workload
// build and result hashing.
func BenchmarkSweepGrid(b *testing.B) {
	grid := sweep.Grid{
		Benches:        []string{"bzip2", "crafty", "gap", "gzip", "parser", "adpcm.de", "gsm.de", "jpg.de"},
		MachineConfigs: sweep.Specs("4w", "6w"),
		RenoConfigs:    sweep.Specs("BASE", "RENO"),
		Scale:          0.4,
		MaxInsts:       60_000,
	}
	jobs, err := grid.Expand()
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := sweep.Run(jobs, grid.Options())
		for _, r := range results {
			if r.Err != "" {
				b.Fatalf("%s: %s", r.Key(), r.Err)
			}
			insts += r.Insts
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simInsts/s")
}

// BenchmarkSimulatorThroughput measures raw pipeline simulation speed
// (simulated instructions per wall second) on one representative workload
// per suite — the metric that bounds every experiment's runtime — and on
// mcf, whose cache misses leave most cycles idle, so that skipping idle
// cycles shows up here too.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, name := range []string{"gzip", "gsm.de", "mcf"} {
		name := name
		b.Run(name, func(b *testing.B) {
			prof, _ := workload.ByName(name)
			w := workload.MustBuild(workload.Scale(prof, 1.0))
			warm, err := w.WarmupCount()
			if err != nil {
				b.Fatal(err)
			}
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := backend.For(backend.Detailed).Run(context.Background(), backend.Request{
					Cfg: pipeline.FourWide(reno.Default(160)), Code: w.Code, Warmup: warm, MaxInsts: 100_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Pipe.Insts
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simInsts/s")
		})
	}
}

// BenchmarkSteadyStateCommit measures the warm cycle loop in isolation:
// one Sim over a looped gzip trace, advanced 5000 cycles per iteration.
// With -benchmem this is the zero-alloc witness for the hot path — the
// steady-state fetch→rename→issue→commit loop must report 0 allocs/op
// (TestSteadyStateCommitPathZeroAllocs enforces the same property in plain
// `go test` runs).
func BenchmarkSteadyStateCommit(b *testing.B) {
	s, budget := steadySim(b)
	var insts0 uint64
	if res, err := s.RunContext(context.Background(), pipeline.RunOptions{MaxCycles: budget}); err == nil {
		insts0 = res.Insts
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *pipeline.Result
	for i := 0; i < b.N; i++ {
		budget += 5_000
		res, err := s.RunContext(context.Background(), pipeline.RunOptions{MaxCycles: budget})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.Insts-insts0)/b.Elapsed().Seconds(), "simInsts/s")
		b.ReportMetric(float64(b.N)*5000/b.Elapsed().Seconds(), "simCycles/s")
	}
}

// BenchmarkEngineNext measures the shared elimination engine's decision
// rate over a recorded gzip trace: every RENO rename decision the two
// backends consume, with the engine's commit window, in decisions per
// second.
func BenchmarkEngineNext(b *testing.B) {
	prof, _ := workload.ByName("gzip")
	w := workload.MustBuild(workload.Scale(prof, 0.2))
	trace, err := emu.CollectTrace(w.Code, 200_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.FourWide(reno.Default(160))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth)
		for k := range trace {
			if _, _, err := eng.Next(&trace[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(trace))/b.Elapsed().Seconds(), "decisions/s")
}
