package repro_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/pipeline"
	"reno/internal/reno"
	"reno/internal/workload"
	"reno/metrics"
)

// loopFeed replays a recorded dynamic trace cyclically, so one Sim can be
// stepped forever for steady-state measurement without the emulator (or
// workload completion) in the loop.
func loopFeed(trace []emu.Dyn) func(*emu.Dyn) bool {
	i := 0
	return func(d *emu.Dyn) bool {
		*d = trace[i]
		i++
		if i == len(trace) {
			i = 0
		}
		return true
	}
}

// steadySim builds a simulator over a looped gzip trace and runs it past
// its allocation high-water mark: all reusable buffers (the stream's
// replay stack, the elimination engine's decision window) reach their
// final capacity during this warm phase.
func steadySim(tb testing.TB) (*pipeline.Sim, uint64) {
	tb.Helper()
	prof, ok := workload.ByName("gzip")
	if !ok {
		tb.Fatal("gzip profile missing")
	}
	w := workload.MustBuild(workload.Scale(prof, 0.2))
	trace, err := emu.CollectTrace(w.Code, 50_000)
	if err != nil {
		tb.Fatal(err)
	}
	s := pipeline.New(pipeline.FourWide(reno.Default(160)), loopFeed(trace))
	warm := uint64(100_000)
	if _, err := s.RunContext(context.Background(), pipeline.RunOptions{MaxCycles: warm}); err != nil {
		tb.Fatal(err)
	}
	return s, warm
}

// TestSteadyStateCommitPathZeroAllocs pins the performance pass's core
// property: once warm, the fetch→rename→issue→commit cycle loop (squashes
// and replays included) allocates nothing. A regression here is a real
// throughput regression — per-cycle allocations were worth roughly 40% of
// simulator MIPS when they were eliminated.
func TestSteadyStateCommitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	s, budget := steadySim(t)
	avg := testing.AllocsPerRun(20, func() {
		budget += 5_000
		if _, err := s.RunContext(context.Background(), pipeline.RunOptions{MaxCycles: budget}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state cycle loop allocates %.2f times per 5000 cycles; want 0", avg)
	}
}

// TestSteadyStateFunctionalZeroAllocs pins the functional backend's
// per-instruction path: once warm, filling chunks of gzip's timed region
// from the trace feed and having a group of engines decide each chunk in
// turn, as the backend does for every configuration that shares a stream
// (here the paper's RENO configuration on 4w and 6w, and full
// integration), allocates nothing.
func TestSteadyStateFunctionalZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	start, err := workload.MustBuild(prof).Warm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var engines []*elim.Engine
	for _, cfg := range []pipeline.Config{
		pipeline.FourWide(reno.Default(160)),
		pipeline.SixWide(reno.Default(0)),
		pipeline.FourWide(reno.FullIntegration(160)),
	} {
		engines = append(engines, elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth))
	}
	f := pipeline.NewFeed(context.Background(), start.Machine(), 0)
	chunk := make([]emu.Dyn, 256)
	var insts int
	run := func(chunks int) {
		for c := 0; c < chunks; c++ {
			for k := range chunk {
				if !f.Next(&chunk[k]) {
					t.Fatalf("feed ended after %d instructions: %v", insts, f.Err())
				}
				insts++
			}
			for _, eng := range engines {
				for k := range chunk {
					if _, _, err := eng.Next(&chunk[k]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	run(40) // past the engines' and the memory's high-water marks
	if avg := testing.AllocsPerRun(20, func() { run(4) }); avg != 0 {
		t.Errorf("steady-state feed and engine group allocate %.2f times per %d instructions; want 0", avg, 4*len(chunk))
	}
}

// TestEnvelopeAllocsIndependentOfSetSize pins the envelope writer's cost
// model: encoding a record allocates the same whether its set holds 5
// metrics or 50, so a sweep envelope's allocations grow with its records
// at most, never with its metrics.
func TestEnvelopeAllocsIndependentOfSetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	allocs := func(perRecord int) float64 {
		rep := metrics.NewReport("test")
		for i := 0; i < 20; i++ {
			s := metrics.NewSet()
			for j := 0; j < perRecord; j++ {
				s.Counter(fmt.Sprintf("m.%03d", j), uint64(i*j)).Gauge(fmt.Sprintf("g.%03d", j), float64(j)/3)
			}
			rep.Add(metrics.Record{
				Labels:  map[string]string{metrics.LabelBench: "gzip", metrics.LabelSeed: fmt.Sprint(i)},
				Attrs:   map[string]string{metrics.AttrRunHash: "00deadbeef00cafe"},
				Metrics: s,
			})
		}
		return testing.AllocsPerRun(10, func() {
			if err := rep.Encode(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(5), allocs(50); small != large {
		t.Errorf("encoding 20 records allocates %.0f times with 5 metrics each and %.0f times with 50", small, large)
	}
}
