package sweep

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reno/internal/machine"
)

// tinyGrid is a small but real multi-axis grid used across the tests.
func tinyGrid() Grid {
	return Grid{
		Benches:        []string{"gzip", "gsm.de"},
		MachineConfigs: Specs("4w", "6w"),
		RenoConfigs:    Specs("BASE", "RENO"),
		Scale:          0.1,
		MaxInsts:       10_000,
	}
}

func runGrid(t *testing.T, g Grid, workers int) []*Result {
	t.Helper()
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := g.Options()
	opts.Workers = workers
	results := Run(jobs, opts)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for _, r := range results {
		if r == nil {
			t.Fatal("nil result slot")
		}
		if r.Err != "" {
			t.Fatalf("%s failed: %s", r.Key(), r.Err)
		}
	}
	return results
}

// TestHashesInvariantUnderWorkerCount is the subsystem's core guarantee:
// scheduling must not leak into results.
func TestHashesInvariantUnderWorkerCount(t *testing.T) {
	g := tinyGrid()
	serial := runGrid(t, g, 1)
	wide := runGrid(t, g, 8)
	for i := range serial {
		if serial[i].Key() != wide[i].Key() {
			t.Fatalf("result order differs at %d: %s vs %s", i, serial[i].Key(), wide[i].Key())
		}
		if serial[i].Hash != wide[i].Hash {
			t.Errorf("%s: hash differs between workers=1 (%s) and workers=8 (%s)",
				serial[i].Key(), serial[i].Hash, wide[i].Hash)
		}
	}
}

// TestHashCoversOutcome: perturbing any deterministic field must change the
// hash; perturbing wall-clock fields must not.
func TestHashCoversOutcome(t *testing.T) {
	base := &Result{Bench: "b", Suite: "s", Machine: "4w", Config: "RENO",
		Cycles: 100, Insts: 200, IPC: 2, ElimTotal: 20, ArchHash: "00ff"}
	h0 := hashResult(base)
	perturb := []func(r *Result){
		func(r *Result) { r.Bench = "c" },
		func(r *Result) { r.Config = "BASE" },
		func(r *Result) { r.Seed = 1 },
		func(r *Result) { r.Cycles = 101 },
		func(r *Result) { r.Insts = 201 },
		func(r *Result) { r.ElimTotal = 21 },
		func(r *Result) { r.ArchHash = "00fe" },
		func(r *Result) { r.Err = "x" },
	}
	for i, p := range perturb {
		r := *base
		p(&r)
		if hashResult(&r) == h0 {
			t.Errorf("perturbation %d did not change the hash", i)
		}
	}
	r := *base
	r.WallNS = 1e9
	r.SimInstsPerSec = 5e6
	if hashResult(&r) != h0 {
		t.Error("wall-clock fields leaked into the hash")
	}
}

// TestSeedsProduceDistinctDeterministicRuns: a non-zero seed is a different
// program (different hash) but the same seed twice is the same program.
func TestSeedsProduceDistinctDeterministicRuns(t *testing.T) {
	g := Grid{
		Benches:        []string{"gzip"},
		MachineConfigs: Specs("4w"),
		RenoConfigs:    Specs("RENO"),
		Seeds:          []int64{0, 1},
		Scale:          0.1,
		MaxInsts:       10_000,
	}
	a := runGrid(t, g, 2)
	b := runGrid(t, g, 1)
	if a[0].Hash == a[1].Hash {
		t.Error("seed 0 and seed 1 produced identical results")
	}
	for i := range a {
		if a[i].Hash != b[i].Hash {
			t.Errorf("%s: rerun hash differs", a[i].Key())
		}
	}
}

// TestAuditCatchesDivergence: equal-seed runs across configs must share an
// architectural hash, and a corrupted one must be reported.
func TestAuditCatchesDivergence(t *testing.T) {
	results := runGrid(t, tinyGrid(), 4)
	if warns := Audit(results); len(warns) != 0 {
		t.Fatalf("clean sweep audited dirty: %v", warns)
	}
	h, err := strconv.ParseUint(results[1].ArchHash, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	results[1].ArchHash = fmt.Sprintf("%016x", h+1)
	warns := Audit(results)
	if len(warns) == 0 {
		t.Fatal("audit missed a corrupted architectural hash")
	}
	if !strings.Contains(warns[0], results[1].Bench) {
		t.Errorf("warning does not name the bench: %q", warns[0])
	}
}

// TestRunManyJobsBounded pushes far more jobs than workers through a narrow
// pool to exercise batching; result order must match job order.
func TestRunManyJobsBounded(t *testing.T) {
	g := Grid{
		Benches:        []string{"micro.compute"},
		MachineConfigs: Specs("4w"),
		RenoConfigs:    Specs("BASE"),
		Scale:          0.05,
		MaxInsts:       500,
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Replicate with distinct seeds to get a long, addressable job list.
	var many []Job
	for s := int64(0); s < 60; s++ {
		j := jobs[0]
		j.Seed = s
		many = append(many, j)
	}
	var events int
	results := Run(many, Options{Workers: 3, Scale: 0.05, MaxInsts: 500,
		Progress: func(ri RunInfo) {
			events++
			if ri.Total != len(many) {
				t.Errorf("progress total %d, want %d", ri.Total, len(many))
			}
		}})
	if events != len(many) {
		t.Errorf("progress fired %d times, want %d", events, len(many))
	}
	for i, r := range results {
		if r == nil || r.Err != "" {
			t.Fatalf("run %d failed: %+v", i, r)
		}
		if r.Seed != many[i].Seed {
			t.Fatalf("result %d out of order: seed %d want %d", i, r.Seed, many[i].Seed)
		}
	}
}

// TestRunContextCancellation: canceling mid-sweep stops promptly, leaves no
// goroutines behind, fills every result slot, and marks unfinished runs as
// errors rather than dropping them.
func TestRunContextCancellation(t *testing.T) {
	g := Grid{
		Benches:        []string{"gzip", "gsm.de"},
		MachineConfigs: Specs("4w", "6w"),
		RenoConfigs:    Specs("BASE", "RENO"),
		Seeds:          []int64{0, 1, 2},
		Scale:          0.3,
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Workers: 2, Scale: 0.3}
	first := true
	opts.Progress = func(ri RunInfo) {
		if first {
			first = false
			cancel()
		}
	}
	t0 := time.Now()
	results := RunContext(ctx, jobs, opts)
	elapsed := time.Since(t0)
	cancel()
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	var failed, completed int
	for i, r := range results {
		if r == nil {
			t.Fatalf("slot %d nil after cancellation", i)
		}
		if r.Err != "" {
			failed++
			if !strings.Contains(r.Err, "canceled") {
				t.Errorf("%s: unexpected error %q", r.Key(), r.Err)
			}
		} else {
			completed++
		}
	}
	if failed == 0 {
		t.Errorf("cancellation after the first run failed nothing (%d jobs, %s elapsed)", len(jobs), elapsed)
	}
	if completed == 0 {
		t.Error("the run that triggered cancellation should have completed")
	}
	// Workers are joined before RunContext returns: allow scheduler slack
	// but catch leaked pools.
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d across a canceled sweep", before, after)
	}
}

// TestRunContextPreCanceled: a sweep under an already-dead context runs
// nothing and says so on every result.
func TestRunContextPreCanceled(t *testing.T) {
	jobs, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunContext(ctx, jobs, Options{Workers: 4, Scale: 0.1})
	for _, r := range results {
		if r == nil || r.Err == "" {
			t.Fatalf("pre-canceled sweep produced a live result: %+v", r)
		}
		if r.Insts != 0 {
			t.Errorf("%s simulated %d insts under a dead context", r.Key(), r.Insts)
		}
	}
}

// TestPerRunTimeout: an unmeetable per-run budget fails runs with partial
// statistics instead of hanging the sweep.
func TestPerRunTimeout(t *testing.T) {
	g := Grid{
		Benches:        []string{"gzip"},
		MachineConfigs: Specs("4w"),
		RenoConfigs:    Specs("BASE"),
		Scale:          1.0,
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := Run(jobs, Options{Workers: 1, Scale: 1.0, Timeout: time.Nanosecond})
	r := results[0]
	if r.Err == "" {
		t.Fatal("nanosecond budget did not time the run out")
	}
	if !strings.Contains(r.Err, "deadline") {
		t.Errorf("error %q does not mention the deadline", r.Err)
	}
	if r.ArchHash != "" {
		t.Error("partial run kept an architectural hash; Audit would compare mid-program state")
	}
}

// TestSummarize checks the aggregate totals, including failure counting.
func TestSummarize(t *testing.T) {
	results := []*Result{
		{Cycles: 10, Insts: 20, IPC: 2},
		{Cycles: 10, Insts: 40, IPC: 4},
		{Err: "boom"},
		nil,
	}
	s := Summarize(results)
	if s.Runs != 3 || s.Failed != 1 || s.Insts != 60 || s.Cycles != 20 {
		t.Errorf("summary %+v", s)
	}
	if s.MeanIPC != 3 {
		t.Errorf("mean IPC %f, want 3", s.MeanIPC)
	}
}

// TestEmitDeterministic: -stable emission is byte-identical across pool
// widths and hides wall-clock noise.
func TestEmitDeterministic(t *testing.T) {
	g := tinyGrid()
	a := runGrid(t, g, 1)
	b := runGrid(t, g, 8)
	ga, gb := g, g
	ga.Workers, gb.Workers = 1, 8

	render := func(g Grid, rs []*Result) (string, string) {
		var j, c bytes.Buffer
		if err := NewReport(g, rs).WriteJSON(&j, EmitOptions{Deterministic: true}); err != nil {
			t.Fatal(err)
		}
		if err := NewReport(g, rs).WriteCSV(&c, EmitOptions{Deterministic: true}); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	ja, ca := render(ga, a)
	jb, cb := render(gb, b)
	if ja != jb {
		t.Error("deterministic JSON differs across worker counts")
	}
	if ca != cb {
		t.Error("deterministic CSV differs across worker counts")
	}
	if !strings.Contains(ja, `"run_hash"`) || !strings.Contains(ca, "run_hash") {
		t.Error("emission missing run hashes")
	}
	if strings.Contains(ja, `"wall_ns": 1`) {
		t.Error("deterministic JSON retains wall-clock data")
	}
}

// TestFunctionalGroupsMatchSingleRuns: a functional grid runs each
// program's cells as groups over one trace feed, split by the pool width;
// at every width each cell's record equals the one it gets swept alone.
func TestFunctionalGroupsMatchSingleRuns(t *testing.T) {
	g := Grid{
		Benches:        []string{"gzip", "gsm.de"},
		MachineConfigs: Specs("4w", "6w"),
		RenoConfigs:    Specs(machine.RenoNames()...),
		Seeds:          []int64{0, 1},
		Backend:        "functional",
		Scale:          0.2,
		MaxInsts:       15_000,
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := g.Options()
	alone := make([]*Result, len(jobs))
	for i, j := range jobs {
		alone[i] = RunContext(context.Background(), []Job{j}, opts)[0]
	}
	for _, workers := range []int{1, 2, 3, 8} {
		opts.Workers = workers
		for i, r := range RunContext(context.Background(), jobs, opts) {
			want := alone[i]
			if r.Err != "" || r.Hash != want.Hash || r.ArchHash != want.ArchHash || !r.Metrics.Equal(want.Metrics) {
				t.Errorf("workers=%d %s: grouped run (hash %s, err %q) differs from its run alone (hash %s, err %q)",
					workers, r.Key(), r.Hash, r.Err, want.Hash, want.Err)
			}
		}
	}
}

// TestFunctionalGroupTimeout: an unmeetable per-run budget times a
// functional group out mid-run, and every member gets the same partial
// record, as if each had run alone to the same instruction.
func TestFunctionalGroupTimeout(t *testing.T) {
	g := Grid{
		Benches:     []string{"gzip"},
		RenoConfigs: Specs(machine.RenoNames()...),
		Backend:     "functional",
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := Run(jobs, Options{Workers: 1, Timeout: time.Nanosecond})
	for _, r := range results {
		if !strings.Contains(r.Err, "deadline") || r.ArchHash != "" {
			t.Errorf("%s: err %q arch %q, want a timed-out record without an architectural hash", r.Key(), r.Err, r.ArchHash)
		}
		if r.Insts != results[0].Insts {
			t.Errorf("%s stopped after %d instructions, %s after %d", r.Key(), r.Insts, results[0].Key(), results[0].Insts)
		}
	}
}

// TestForEach: every index in [0, n) is called exactly once, no more than
// min(workers, n) calls run at a time (workers <= 0 meaning GOMAXPROCS),
// and n = 0 calls nothing.
func TestForEach(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 10}, {3, 50}, {8, 5}, {0, 20}, {4, 0}} {
		calls := make([]atomic.Int32, c.n)
		var running, peak atomic.Int32
		ForEach(c.workers, c.n, func(i int) {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			calls[i].Add(1)
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
		})
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("ForEach(%d, %d): index %d called %d times, want once", c.workers, c.n, i, got)
			}
		}
		bound := c.workers
		if bound <= 0 {
			bound = runtime.GOMAXPROCS(0)
		}
		if got := int(peak.Load()); got > min(bound, c.n) {
			t.Errorf("ForEach(%d, %d): %d calls ran at once, want at most %d", c.workers, c.n, got, min(bound, c.n))
		}
	}
}
