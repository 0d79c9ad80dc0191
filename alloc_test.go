package repro_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"testing"

	"reno/internal/backend"
	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/machine"
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
// its allocation high-water mark: all reusable buffers (the ROB and
// fetch-queue ring, the elimination engine's decision window) reach their
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

// TestEngineAllocsIndependentOfRunLength pins the elimination engine's
// cost model: everything an engine allocates is sized when it is built,
// so a fresh engine deciding the first 1,000 records of gzip's region
// allocates as often as one deciding the whole region. A per-register
// structure grown on first use fails it, since a longer run touches more
// registers.
func TestEngineAllocsIndependentOfRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	trace, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.2)).Code, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const short = 1_000
	if len(trace) <= short {
		t.Fatalf("gzip region is %d records; want more than %d", len(trace), short)
	}
	cfg := pipeline.FourWide(reno.Default(160))
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			eng := elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth)
			for k := range trace[:n] {
				if _, _, err := eng.Next(&trace[k]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if few, all := allocs(short), allocs(len(trace)); few != all {
		t.Errorf("an engine allocates %.0f times deciding %d records and %.0f times deciding all %d", few, short, all, len(trace))
	}
}

// TestDetailedRunRecyclesState pins that a detailed run reuses the
// simulator state a finished run left instead of building its own: the
// caches, predictors, engine, buffers and the critical-path window. Of two
// identical runs of gzip with the analyzer attached, the second allocates
// at most a tenth of the bytes the first, which starts with no finished
// run to reuse, allocates. Garbage collection, which may empty the pool,
// is off while they run, and so is every P but one: a sync.Pool keeps what
// one P puts where no other P's Get finds it, so a goroutine moved to
// another P between the runs would miss the pool.
func TestDetailedRunRecyclesState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	start, err := workload.MustBuild(workload.Scale(prof, 0.2)).Warm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := backend.Request{Cfg: pipeline.FourWide(reno.Default(160)), Start: start, CPAChunk: 50_000}
	runtime.GC() // twice: a pool survives one collection
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := backend.For(backend.Detailed).Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	if second > first/10 {
		t.Errorf("a detailed run allocates %d bytes from nothing and %d after a finished one; want at most a tenth", first, second)
	}
}

// TestFunctionalGroupRecyclesEngines pins that a functional group reuses
// the elimination engines a finished group left instead of building its
// own: the integration tables, generation arrays and decision windows. Of
// two identical groups of gzip's region under every registered RENO
// configuration on 4w, the second allocates at most a tenth of the bytes
// the first, which starts with no finished group to reuse, allocates.
// Garbage collection and every P but one are off while they run, as in
// TestDetailedRunRecyclesState.
func TestFunctionalGroupRecyclesEngines(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	start, err := workload.MustBuild(workload.Scale(prof, 0.2)).Warm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []pipeline.Config
	for _, name := range machine.RenoNames() {
		rc, err := machine.RenoByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := machine.ParseMachine("4w", rc)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	req := backend.Request{Start: start}
	runtime.GC() // twice: a pool survives one collection
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, errs := backend.RunGroup(context.Background(), req, cfgs)
		runtime.ReadMemStats(&after)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", machine.RenoNames()[i], err)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	if second > first/10 {
		t.Errorf("a functional group of %d configurations allocates %d bytes from nothing and %d after a finished one; want at most a tenth", len(cfgs), first, second)
	}
}

// pageBytes is the size of one emulator memory page (4096 words).
const pageBytes = 32 << 10

// TestSnapshotRunsSharePages pins that a run does not copy the memory of
// the snapshot it starts from. Starting a machine from a snapshot of one
// page and from one of 64 pages allocates less than a page either way;
// and of two identical detailed runs of gzip from its post-warmup
// snapshot, the second allocates no page-sized object: the pages the
// first wrote were released to the pages the second writes. Garbage
// collection and every P but one are off while the runs go, as in
// TestDetailedRunRecyclesState.
func TestSnapshotRunsSharePages(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, pages := range []uint64{1, 64} {
		m := emu.New(nil)
		for pn := range pages {
			m.Mem.Store(pn*pageBytes/8, pn+1)
		}
		s := m.Freeze()
		const starts = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range starts {
			if s.Machine().Mem.Load(0) != 1 {
				t.Fatal("a machine started from the snapshot lost its memory")
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / starts; per >= pageBytes {
			t.Errorf("starting a machine from a %d-page snapshot allocates %d bytes; want less than a page (%d)", pages, per, pageBytes)
		}
	}

	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	start, err := workload.MustBuild(workload.Scale(prof, 0.2)).Warm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := backend.Request{Cfg: pipeline.FourWide(reno.Default(160)), Start: start}
	runtime.GC() // twice: a pool survives one collection
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pagesAllocated := func() uint64 {
		before := largeAllocs(t)
		if _, err := backend.For(backend.Detailed).Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		return largeAllocs(t) - before
	}
	if first := pagesAllocated(); first == 0 {
		t.Fatal("the first run allocated no page: too short to test")
	}
	if second := pagesAllocated(); second != 0 {
		t.Errorf("a second detailed run from the same snapshot allocates %d objects of a page or more; want 0", second)
	}
}

// largeAllocs returns how many objects of a page (32 KB) or more the
// program has allocated: the runtime's allocation histogram counts all of
// them in its last bucket.
func largeAllocs(t *testing.T) uint64 {
	t.Helper()
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	rtmetrics.Read(s)
	h := s[0].Value.Float64Histogram()
	last := len(h.Counts) - 1
	if lo := h.Buckets[last]; lo > pageBytes+1 {
		t.Fatalf("the allocation histogram's last bucket starts at %v bytes; want a page (%d) or less", lo, pageBytes)
	}
	return h.Counts[last]
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
