package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"regexp"
	"time"

	"reno/internal/harness"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// goldenPaper is `renobench -fig all` at the default scale with its
// "(<name> in <duration>)" timing lines removed.
//
//go:embed golden/paper.txt
var goldenPaper []byte

// timingLine matches renobench's per-figure timing lines, the only
// nondeterministic text in its output.
var timingLine = regexp.MustCompile(`(?m)^\(.* in [^()]*\)\n`)

// stripTiming removes the timing lines from renobench-format output.
func stripTiming(b []byte) []byte { return timingLine.ReplaceAll(b, nil) }

// figure is one table or figure of the paper, in renobench's order.
type figure struct {
	title string // renobench's section header
	span  string // span name of the harness call
	run   func(ctx context.Context, w io.Writer, opts harness.Options)
}

func paperFigures() []figure {
	return []figure{
		{"Instruction mix (Section 4.2)", "harness.mix", harness.TableMix},
		{"Figure 8", "harness.fig8", func(ctx context.Context, w io.Writer, o harness.Options) { harness.Fig8(ctx, w, o) }},
		{"Figure 9", "harness.fig9", harness.Fig9},
		{"Figure 10", "harness.fig10", func(ctx context.Context, w io.Writer, o harness.Options) { harness.Fig10(ctx, w, o) }},
		{"Figure 11", "harness.fig11", harness.Fig11},
		{"Figure 12", "harness.fig12", harness.Fig12},
		{"CF fusion-latency ablation (Section 3.3)", "harness.cflat", harness.CFLatencyAblation},
	}
}

// regenerate writes every table and figure exactly as `renobench -fig all`
// does, with a span around each harness call.
func regenerate(ctx context.Context, w io.Writer, opts harness.Options, tr *tracer, parent int) {
	for _, f := range paperFigures() {
		t0 := time.Now()
		fmt.Fprintf(w, "==== %s ====\n", f.title)
		sp := tr.begin(f.span, parent, "")
		f.run(ctx, w, opts)
		tr.end(sp, 0)
		fmt.Fprintf(w, "(%s in %s)\n\n", f.title, time.Since(t0).Truncate(time.Millisecond))
	}
}

// buildPrograms generates and assembles the programs of profiles at one
// workload seed, as the sweep pool does before simulating, with a span
// around each build.
func buildPrograms(profiles []workload.Profile, seed int64, tr *tracer) error {
	for _, p := range profiles {
		sp := tr.begin("workload.build", 0, p.Name)
		prog, err := workload.Build(sweep.SeedProfile(p, seed))
		if err == nil {
			_, err = prog.WarmupCount()
		}
		if err != nil {
			return err
		}
		tr.end(sp, int64(len(prog.Code)))
	}
	return nil
}

// runPaper is the paper workload: one closed-loop batch client that
// regenerates every table and figure, back to back, until the run's time
// is up. Set-up builds the paper's programs. Each regeneration must match
// the golden text byte for byte.
func runPaper(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{}
	for i := 0; i < setupRepeats; i++ {
		t0 := setupStart()
		if err := buildPrograms(workload.AllProfiles(), 0, tr); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}

	opts := harness.DefaultOptions()
	start, alloc0 := time.Now(), heapAllocMB()
	for len(out.latencies) == 0 || time.Since(start) < cfg.seconds {
		var buf bytes.Buffer
		t0 := time.Now()
		op := tr.begin("op.paper", 0, fmt.Sprint(len(out.latencies)))
		regenerate(ctx, &buf, opts, tr, op)
		tr.end(op, 0)
		lat := time.Since(t0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out.attempted++
		out.latencies = append(out.latencies, lat.Seconds())
		if got := stripTiming(buf.Bytes()); !bytes.Equal(got, goldenPaper) {
			out.fail("paper regeneration %d differs from the golden figure text (%d vs %d bytes)", out.attempted, len(got), len(goldenPaper))
		}
	}
	out.measured, out.allocMB = time.Since(start), heapAllocMB()-alloc0
	return out, nil
}
