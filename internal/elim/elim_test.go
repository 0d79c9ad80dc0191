package elim

import (
	"testing"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/reno"
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
