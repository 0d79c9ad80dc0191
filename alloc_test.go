package repro_test

import (
	"context"
	"testing"

	"reno/internal/emu"
	"reno/internal/pipeline"
	"reno/internal/reno"
	"reno/internal/workload"
)

// loopFeed replays a recorded dynamic trace cyclically, so one Sim can be
// stepped forever for steady-state measurement without the emulator (or
// workload completion) in the loop.
func loopFeed(trace []emu.Dyn) func() (emu.Dyn, bool) {
	i := 0
	return func() (emu.Dyn, bool) {
		d := trace[i]
		i++
		if i == len(trace) {
			i = 0
		}
		return d, true
	}
}

// steadySim builds a simulator over a looped gzip trace and runs it past
// its allocation high-water mark: all reusable buffers (squash replay,
// stream replay stack, the elimination engine's decision window) reach
// their final capacity during this warm phase.
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
