package sweep

import (
	"context"
	"sync"
	"testing"

	"reno/internal/machine"
)

// lateCancel is a context that is canceled by the nth call to Done (n = 0:
// from the start). The prebuild asks for Done once per warmup, so n picks
// the warmup that finds the sweep canceled.
type lateCancel struct {
	context.Context
	mu    sync.Mutex
	calls int
	n     int
	done  chan struct{}
}

func (c *lateCancel) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls++; c.calls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *lateCancel) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCanceledPrebuild: a sweep canceled before or during the prebuild
// warms no further program and runs nothing. Every job comes back with the
// context's error, no instructions and no wall time, and none is reported
// as a failed build.
func TestCanceledPrebuild(t *testing.T) {
	jobs, err := Grid{Benches: []string{"all"}, RenoConfigs: Specs("BASE", "RENO")}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"before": 0, "during": 3} {
		ctx := &lateCancel{Context: context.Background(), n: n, done: make(chan struct{})}
		if n == 0 {
			close(ctx.done)
		}
		for i, r := range RunContext(ctx, jobs, Options{Workers: 2}) {
			if r == nil {
				t.Fatalf("%s: slot %d nil", name, i)
			}
			if r.Err != context.Canceled.Error() || r.Insts != 0 || r.WallNS != 0 || r.Metrics != nil || r.BuildFailed() {
				t.Errorf("%s: %s: err %q, %d insts, wall %d ns, build failed %v; want a canceled job that never ran",
					name, r.Key(), r.Err, r.Insts, r.WallNS, r.BuildFailed())
			}
		}
		if ctx.calls != n {
			t.Errorf("%s: the prebuild asked for Done %d times, want %d (it went on warming after the cancel)", name, ctx.calls, n)
		}
	}
}

// TestSharedSnapshotUnchanged runs the cells of one program under every
// registered RENO configuration concurrently from one shared post-warmup
// snapshot, as the pool does (run it under -race). Each cell must match a
// serial sweep, and the snapshot must be left exactly as it was taken.
func TestSharedSnapshotUnchanged(t *testing.T) {
	g := Grid{
		Benches:     []string{"gzip"},
		RenoConfigs: Specs(machine.RenoNames()...),
		Backend:     "functional",
		Scale:       0.3,
		MaxInsts:    20_000,
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := RunContext(context.Background(), jobs, Options{Workers: 1, Scale: g.Scale, MaxInsts: g.MaxInsts})

	start, err := Start(context.Background(), jobs[0].Profile, jobs[0].Seed, g.Scale)
	if err != nil {
		t.Fatal(err)
	}
	hash, icount := start.StateHash(), start.ICount()
	b := &built{start: start}
	got := make([]*Result, len(jobs))
	ForEach(len(jobs), len(jobs), func(i int) {
		got[i] = runOne(context.Background(), jobs[i], b, g.Options())
	})

	for i, r := range got {
		if r.Err != "" || r.Hash != want[i].Hash {
			t.Errorf("%s: concurrent run hash %s (err %q), serial sweep %s", r.Key(), r.Hash, r.Err, want[i].Hash)
		}
	}
	if start.StateHash() != hash || start.ICount() != icount {
		t.Errorf("shared snapshot changed: hash %016x -> %016x, icount %d -> %d",
			hash, start.StateHash(), icount, start.ICount())
	}
}

// TestStartScaleDefault: a scale <= 0 starts the program a scale of 1.0
// starts, as Options.Scale documents.
func TestStartScaleDefault(t *testing.T) {
	profs, err := ResolveBenches([]string{"bzip2"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Start(context.Background(), profs[0], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0, -1} {
		got, err := Start(context.Background(), profs[0], 0, scale)
		if err != nil {
			t.Fatal(err)
		}
		if got.Machine().StateHash() != want.Machine().StateHash() || got.ICount() != want.ICount() {
			t.Errorf("scale %v: state %016x after %d instructions; scale 1: %016x after %d",
				scale, got.Machine().StateHash(), got.ICount(), want.Machine().StateHash(), want.ICount())
		}
	}
}
