package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"reno/internal/cpa"
	"reno/internal/emu"
	"reno/internal/reno"
	"reno/internal/workload"
)

// recycleRun is one run of a recycling sequence.
type recycleRun struct {
	cfg      Config
	cpaChunk int
}

// recycleSeq alternates machines whose sizes grow, shrink and grow again:
// the issue queue's port mix and widths change, the register file shrinks
// to 96 and grows back, and the large machine outgrows every buffer the
// earlier runs left, so its run builds them anew.
func recycleSeq() []recycleRun {
	large := FourWide(reno.Default(224))
	large.Name, large.ROBSize, large.IQSize, large.SQSize = "4-wide-large", 256, 64, 48
	return []recycleRun{
		{FourWide(reno.Default(0)), 10_000},
		{SixWide(reno.Baseline(0)), 0},
		{FourWide(reno.RENOPlusFullIntegration(0)).WithPhysRegs(96), 0},
		{FourWide(reno.MECF(0)).WithSchedLoop(2), 0},
		{large, 0},
		{FourWide(reno.Default(0)), 10_000},
	}
}

// recycleBudget keeps each run short; it still spans several CPA chunks.
const recycleBudget = 30_000

// warmStarts returns post-warmup snapshots of gzip, mcf and parser.
// Parser's runs on BASE squash on memory-order violations.
func warmStarts(t *testing.T) []*emu.Snapshot {
	t.Helper()
	var starts []*emu.Snapshot
	for _, name := range []string{"gzip", "mcf", "parser"} {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		start, err := workload.MustBuild(prof).Warm(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, start)
	}
	return starts
}

// freshRun times r from start on a newly built simulator.
func freshRun(t *testing.T, start *emu.Snapshot, r recycleRun) *Result {
	t.Helper()
	f := NewFeed(context.Background(), start.Machine(), recycleBudget)
	s := New(r.cfg, f.Next)
	s.budget = f.budget
	res, err := s.RunContext(context.Background(), RunOptions{CPAChunk: r.cpaChunk})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun reports how got differs from want: in any Result field, or in
// the critical-path totals. got's analyzer, detached from its run, holds
// no records, so the analyzers compare by their totals.
func sameRun(got, want *Result) string {
	if (got.CPA == nil) != (want.CPA == nil) {
		return "one result has a critical-path analyzer and the other none"
	}
	if got.CPA != nil && !reflect.DeepEqual(got.CPA.Totals(), want.CPA.Totals()) {
		return "critical-path totals differ: " + got.CPA.String() + " vs " + want.CPA.String()
	}
	g, w := *got, *want
	g.CPA, w.CPA = nil, nil
	if !reflect.DeepEqual(g, w) {
		return "results differ"
	}
	return ""
}

// builtState is s without what New and reset cannot make equal: the
// stream's and the squash predicate's functions, the analyzer that only a
// CPA run attaches, and the optimizer's spare integration table
// (reno.Optimizer.Reset), unexported in reno and so cleared through
// reflection in a copy of the engine.
func builtState(s *Sim) Sim {
	c := *s
	c.next, c.ssDead, c.cpaBuf = nil, nil, cpa.Analyzer{}
	eng := *s.eng
	spare := reflect.ValueOf(eng.Optimizer()).Elem().FieldByName("spare")
	reflect.NewAt(spare.Type(), unsafe.Pointer(spare.UnsafeAddr())).Elem().SetZero()
	c.eng = &eng
	return c
}

// TestRecycledRunsMatchFresh: one simulator run through recycleSeq on
// each program, reset between runs as Run resets a pooled one, is reset
// to the state New builds and gives every run the Result a newly built
// simulator gives it. The first run's Result, kept throughout, is
// unchanged by each later run: it shares no memory with the simulator.
// Some run squashes, so some reset follows a run that refetched in place.
func TestRecycledRunsMatchFresh(t *testing.T) {
	s := new(Sim)
	var replays uint64
	for _, start := range warmStarts(t) {
		var first *Result
		var firstCopy Result
		var firstCPA cpa.Analyzer
		for i, r := range recycleSeq() {
			f := NewFeed(context.Background(), start.Machine(), recycleBudget)
			s.reset(r.cfg, f.Next)
			if s.refetch != 0 || !reflect.DeepEqual(builtState(s), builtState(New(r.cfg, f.Next))) {
				t.Errorf("run %d on %s: a reset simulator differs from a newly built one", i, r.cfg.Name)
			}
			got, err := s.run(context.Background(), r.cfg, f, RunOptions{CPAChunk: r.cpaChunk})
			if err != nil {
				t.Fatal(err)
			}
			replays += got.Replays
			if got.Insts == 0 || (r.cpaChunk > 0 && got.CPA.Chunks < 2) {
				t.Fatalf("run %d on %s: %d instructions, CPA %+v: too short to test", i, r.cfg.Name, got.Insts, got.CPA)
			}
			if d := sameRun(got, freshRun(t, start, r)); d != "" {
				t.Errorf("run %d on %s: recycled run differs from a fresh one: %s\n got %+v", i, r.cfg.Name, d, got)
			}
			if i == 0 {
				first, firstCopy, firstCPA = got, *got, *got.CPA
			} else if !reflect.DeepEqual(*first.CPA, firstCPA) || !reflect.DeepEqual(*first, firstCopy) {
				t.Fatalf("run %d on %s changed the first run's result:\n got %+v\nwant %+v", i, r.cfg.Name, first, firstCopy)
			}
		}
	}
	if replays == 0 {
		t.Error("no run squashed: no reset followed a refetch")
	}
}

// TestConcurrentPooledRuns: two goroutines running recycleSeq through Run
// at once, sharing its pool, each get a fresh simulator's results. The
// race step runs it to check that a pooled simulator is never shared.
func TestConcurrentPooledRuns(t *testing.T) {
	starts := warmStarts(t)
	seq := recycleSeq()
	want := make([][]*Result, len(starts))
	for p, start := range starts {
		for _, r := range seq {
			want[p] = append(want[p], freshRun(t, start, r))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p, start := range starts {
				for i := range seq {
					r := seq[(i+g)%len(seq)] // the goroutines run the sequence out of step
					f := NewFeed(context.Background(), start.Machine(), recycleBudget)
					got, err := Run(context.Background(), r.cfg, f, RunOptions{CPAChunk: r.cpaChunk})
					if err != nil {
						t.Error(err)
						return
					}
					if d := sameRun(got, want[p][(i+g)%len(seq)]); d != "" {
						t.Errorf("goroutine %d, run %d on %s: %s", g, i, r.cfg.Name, d)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
