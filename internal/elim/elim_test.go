package elim

import (
	"reflect"
	"testing"
	"unsafe"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/reno"
	"reno/internal/workload"
)

// decision is one Next outcome.
type decision struct {
	Ren          reno.Renamed
	MinCommitted uint64
}

// next decides one hand-built dynamic instruction.
func next(t *testing.T, e *Engine, in isa.Inst, result uint64) decision {
	t.Helper()
	r, mc, err := e.Next(&emu.Dyn{Inst: in, Facts: isa.Predecode(in), Result: result})
	if err != nil {
		t.Fatal(err)
	}
	return decision{Ren: *r, MinCommitted: mc}
}

// primeLoad gives r1 a register and loads 8(r1) = 111, leaving a forward
// integration tuple that promises 111 to the next load of 8(r1).
func primeLoad(t *testing.T, e *Engine) {
	t.Helper()
	next(t, e, isa.R(isa.OpAdd, 1, 2, 3), 0)
	next(t, e, isa.Ld(3, 1, 8), 111)
}

func TestStaleBypassRenamedConventionally(t *testing.T) {
	e := New(reno.Default(64), 64, 1)
	primeLoad(t, e)
	dec := next(t, e, isa.Ld(4, 1, 8), 222) // memory changed: the tuple is stale
	if dec.Ren.Elim || dec.Ren.Reexec || !dec.Ren.MisBypass {
		t.Fatalf("stale bypass: elim=%v reexec=%v misBypass=%v, want a conventional MisBypass load",
			dec.Ren.Elim, dec.Ren.Reexec, dec.Ren.MisBypass)
	}
	if n := e.Stats().ReexecFails; n != 1 {
		t.Errorf("re-execution failures = %d, want 1", n)
	}
}

func TestMatchingBypassIntegrates(t *testing.T) {
	e := New(reno.Default(64), 64, 1)
	primeLoad(t, e)
	dec := next(t, e, isa.Ld(4, 1, 8), 111)
	if !dec.Ren.Elim || dec.Ren.Kind != reno.KindCSELoad || !dec.Ren.Reexec || dec.Ren.MisBypass {
		t.Fatalf("matching bypass: elim=%v kind=%v reexec=%v misBypass=%v, want a CSE.load integration",
			dec.Ren.Elim, dec.Ren.Kind, dec.Ren.Reexec, dec.Ren.MisBypass)
	}
	if n := e.Stats().ReexecFails; n != 0 {
		t.Errorf("re-execution failures = %d, want 0", n)
	}
}

// TestMisBypassSurvivesForceCommit: the stale load finds the register file
// full. The first rename attempt judges and invalidates the tuple, then
// fails to allocate; the engine force-commits and retries, and the retry,
// which no longer sees the tuple, must not lose the verdict.
func TestMisBypassSurvivesForceCommit(t *testing.T) {
	const physRegs = isa.NumLogicalRegs + 1 // 32 allocatable registers
	cfg := reno.Default(physRegs)
	e := New(cfg, 64, 1)
	primeLoad(t, e)
	// Fill the file: every rewrite of r5 allocates, and committing the
	// second one frees the first's register.
	for i := 0; i < physRegs-3; i++ {
		next(t, e, isa.R(isa.OpAdd, 5, 6, 7), 0)
	}
	if free := e.Optimizer().RefCounts().Free(); free != 0 {
		t.Fatalf("test setup: %d free registers, want 0", free)
	}
	dec := next(t, e, isa.Ld(4, 1, 8), 222)
	if dec.MinCommitted == 0 {
		t.Fatal("test setup: the load renamed without a force-commit")
	}
	if dec.Ren.Elim || !dec.Ren.MisBypass {
		t.Errorf("stale bypass after force-commit: elim=%v misBypass=%v, want a conventional MisBypass load",
			dec.Ren.Elim, dec.Ren.MisBypass)
	}
	if n := e.Stats().ReexecFails; n != 1 {
		t.Errorf("re-execution failures = %d, want 1", n)
	}
}

// TestNextRefusesUndecoded: a hand-built record whose Facts skipped
// isa.Predecode is an error, not a source-less instruction that writes
// nothing.
func TestNextRefusesUndecoded(t *testing.T) {
	e := New(reno.Default(160), 8, 4)
	if _, _, err := e.Next(&emu.Dyn{Inst: isa.Move(1, 2)}); err == nil {
		t.Fatal("Next accepted a record without predecoded facts")
	}
}

// gzipRegion returns the dynamic instructions of gzip at scale 0.2.
func gzipRegion(t *testing.T) []emu.Dyn {
	t.Helper()
	prof, _ := workload.ByName("gzip")
	trace, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.2)).Code, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// windowHolds counts the in-flight holds of e's decision window: each
// record with a destination holds the register its displaced mapping
// names until the engine commits it.
func windowHolds(e *Engine) map[int]int {
	h := map[int]int{}
	for k := 0; k < e.winCount; k++ {
		if r := &e.win[(e.winHead+k)%len(e.win)]; r.HasDest {
			h[r.OldMap.P]++
		}
	}
	return h
}

// decideChecked decides trace on e, checking the optimizer's reference
// counts against its map table and the window's holds every 1,000
// decisions.
func decideChecked(t *testing.T, e *Engine, trace []emu.Dyn) {
	t.Helper()
	for k := range trace {
		if _, _, err := e.Next(&trace[k]); err != nil {
			t.Fatal(err)
		}
		if (k+1)%1_000 == 0 {
			if err := e.Optimizer().CheckInvariant(windowHolds(e)); err != nil {
				t.Fatalf("after %d decisions: %v", k+1, err)
			}
		}
	}
}

// withoutSpare returns a copy of e whose optimizer holds no spare
// integration table: the one field in which a reset engine may differ
// from a newly built one (reno.Optimizer.Reset). The field is unexported
// in reno, so the copy clears it through reflection.
func withoutSpare(e *Engine) *Engine {
	c := *e
	spare := reflect.ValueOf(c.Optimizer()).Elem().FieldByName("spare")
	reflect.NewAt(spare.Type(), unsafe.Pointer(spare.UnsafeAddr())).Elem().SetZero()
	return &c
}

// TestResetMatchesNew: an engine that has decided gzip's region, reset
// to each shape in turn, equals a newly built engine of that shape in
// every field but the optimizer's spare integration table, unexported
// state included: the optimizer, its reference-count, map and integration
// tables, and the window. The shapes grow, shrink and grow again:
// integration off and back on, the register file down to 96 and the
// window up to 256, which outgrows every array the earlier shapes left.
// Every shape that integrates resets the first shape's integration table,
// kept as the spare through the shapes that do not. Throughout every
// region, on the fresh engine and on each reset one, the reference counts
// agree with the map table and the window's holds.
func TestResetMatchesNew(t *testing.T) {
	trace := gzipRegion(t)
	shapes := []struct {
		cfg        reno.Config
		rob, width int
	}{
		{reno.Default(160), 128, 4},
		{reno.Baseline(160), 128, 6},
		{reno.RENOPlusFullIntegration(96), 128, 4},
		{reno.MECF(160), 128, 4},
		{reno.Default(224), 256, 4},
		{reno.Default(160), 128, 4},
	}
	e := New(shapes[0].cfg, shapes[0].rob, shapes[0].width)
	table := e.Optimizer().IT()
	for i, sh := range shapes {
		if i > 0 {
			e.Reset(sh.cfg, sh.rob, sh.width)
			if !reflect.DeepEqual(withoutSpare(e), New(sh.cfg, sh.rob, sh.width)) {
				t.Fatalf("shape %d: a reset engine differs from a newly built one", i)
			}
			if got := e.Optimizer().IT(); got != nil && got != table {
				t.Errorf("shape %d: the integration table was built anew, not reset in place", i)
			}
		}
		decideChecked(t, e, trace)
	}
}

// TestRecordLifetime pins Next's contract: the record a call returns
// stays unchanged through the next ROBSize-1 calls, force-commits
// included. Over gzip's region, with a register file of 160 and again
// with one small enough that decisions force-commit, each of the last
// ROBSize records still equals the copy taken when it was returned, after
// every call.
func TestRecordLifetime(t *testing.T) {
	const rob = 128
	trace := gzipRegion(t)
	for _, regs := range []int{160, isa.NumLogicalRegs + 8} {
		e := New(reno.Default(regs), rob, 4)
		var recs [rob]*reno.Renamed
		var copies [rob]reno.Renamed
		forced := 0
		for k := range trace {
			r, mc, err := e.Next(&trace[k])
			if err != nil {
				t.Fatal(err)
			}
			if mc > uint64(max(0, k+1-rob)) {
				forced++
			}
			recs[k%rob], copies[k%rob] = r, *r
			for i := 0; i < rob && i <= k; i++ {
				if *recs[i] != copies[i] {
					t.Fatalf("%d registers: after decision %d, the record of decision %d changed", regs, k, k-(k-i+rob)%rob)
				}
			}
		}
		if regs < 160 && forced == 0 {
			t.Fatalf("%d registers: no decision force-committed", regs)
		}
		t.Logf("%d registers: %d of %d decisions force-committed", regs, forced, len(trace))
	}
}
