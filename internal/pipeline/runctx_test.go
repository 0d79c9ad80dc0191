package pipeline

import (
	"context"
	"errors"
	"testing"

	"reno/internal/asm"
	"reno/internal/emu"
	"reno/internal/reno"
)

// longLoop runs long enough (~1M dynamic instructions) that budgets and
// cancellation land mid-program.
const longLoop = `
	addi r9, zero, 20000
loop:
	addi r1, r1, 1
	add  r2, r2, r1
	xor  r3, r3, r2
	add  r4, r4, r2
	subi r9, r9, 1
	bne  r9, zero, loop
	halt
`

func assembleLong(t *testing.T) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(longLoop)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunContextMatchesRun: driving a Sim with RunContext over the
// emulator's stream times the program exactly as RunProgram does.
func TestRunContextMatchesRun(t *testing.T) {
	p := assembleLong(t)
	cfg := FourWide(reno.Default(160))
	a, ha, err := RunProgram(context.Background(), cfg, p.Code, 0, 50_000, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p.Code)
	cfg.MaxInsts = 50_000
	s := New(cfg, func() (emu.Dyn, bool) {
		if m.Halted || m.ICount >= cfg.MaxInsts {
			return emu.Dyn{}, false
		}
		d, err := m.Step()
		return d, err == nil
	})
	b, err := s.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts || ha != m.StateHash() {
		t.Errorf("RunContext diverged from RunProgram: %d/%d vs %d/%d", b.Cycles, b.Insts, a.Cycles, a.Insts)
	}
	if a.StopReason != "max-insts" || b.StopReason != "max-insts" {
		t.Errorf("stop reasons %q/%q, want max-insts", a.StopReason, b.StopReason)
	}
}

// TestRunContextCancelReturnsPartial: a canceled run hands back the cycles
// it already simulated, promptly, with the context's error.
func TestRunContextCancelReturnsPartial(t *testing.T) {
	p := assembleLong(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := FourWide(reno.Baseline(160))

	calls := 0
	res, _, err := RunProgram(ctx, cfg, p.Code, 0, 0, RunOptions{
		ObserveEvery: 5_000,
		Observer: func(st IntervalStats) {
			calls++
			if calls == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v is not context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Insts < 5_000 || res.Insts > 5_000+3*uint64(ctxCheckInterval)*uint64(cfg.CommitWidth)+10_000 {
		t.Errorf("partial result reflects %d insts; cancellation was not prompt", res.Insts)
	}
	if res.StopReason != "canceled" {
		t.Errorf("stop reason %q, want canceled", res.StopReason)
	}
	if res.IPC <= 0 {
		t.Error("partial result carries no stats")
	}
}

// TestRunContextCancelDuringWarmup: cancellation while fast-forwarding
// functionally returns before any timing happens.
func TestRunContextCancelDuringWarmup(t *testing.T) {
	p := assembleLong(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := RunProgram(ctx, FourWide(reno.Baseline(160)), p.Code, 50_000, 0, RunOptions{})
	if err == nil {
		t.Fatal("pre-canceled warmup ran")
	}
	if res != nil {
		t.Errorf("warmup cancellation produced a timed result: %+v", res)
	}
}

// TestRunContextCycleBudget: MaxCycles stops the simulation at the budget
// with a complete summary of the cycles that ran.
func TestRunContextCycleBudget(t *testing.T) {
	p := assembleLong(t)
	res, _, err := RunProgram(context.Background(), FourWide(reno.Baseline(160)), p.Code, 0, 0,
		RunOptions{MaxCycles: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 2_000 {
		t.Errorf("ran %d cycles under a 2000-cycle budget", res.Cycles)
	}
	if res.StopReason != "cycle-budget" {
		t.Errorf("stop reason %q, want cycle-budget", res.StopReason)
	}
	if res.Insts == 0 || res.IPC <= 0 {
		t.Errorf("budgeted run carries no stats: %+v insts=%d", res.IPC, res.Insts)
	}
}

// TestObserverIntervals: the observer fires on the commit interval with
// consistent cumulative and interval counters, and observation does not
// perturb the simulation.
func TestObserverIntervals(t *testing.T) {
	p := assembleLong(t)
	cfg := FourWide(reno.Default(160))

	var snaps []IntervalStats
	res, _, err := RunProgram(context.Background(), cfg, p.Code, 0, 40_000, RunOptions{
		ObserveEvery: 10_000,
		Observer:     func(st IntervalStats) { snaps = append(snaps, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("observer fired %d times over 40k insts at a 10k interval", len(snaps))
	}
	var prev IntervalStats
	for i, st := range snaps {
		if st.Insts < prev.Insts || st.Cycles <= prev.Cycles {
			t.Errorf("snapshot %d not monotonic: %+v after %+v", i, st, prev)
		}
		if st.IntervalInsts != st.Insts-prev.Insts || st.IntervalCycles != st.Cycles-prev.Cycles {
			t.Errorf("snapshot %d interval counters inconsistent: %+v (prev %+v)", i, st, prev)
		}
		if st.IntervalIPC <= 0 || st.IPC <= 0 {
			t.Errorf("snapshot %d has no rates: %+v", i, st)
		}
		if st.ElimPct < 0 || st.ElimPct > 100 {
			t.Errorf("snapshot %d elimination rate out of range: %+v", i, st)
		}
		prev = st
	}
	if last := snaps[len(snaps)-1]; last.Insts > res.Insts {
		t.Errorf("last snapshot (%d insts) beyond the final result (%d)", last.Insts, res.Insts)
	}

	quiet, _, err := RunProgram(context.Background(), cfg, p.Code, 0, 40_000, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Cycles != res.Cycles || quiet.Insts != res.Insts {
		t.Errorf("observation perturbed the run: %d/%d vs %d/%d",
			res.Cycles, res.Insts, quiet.Cycles, quiet.Insts)
	}
}

// TestConfigValidatePresets: both presets validate out of the box, and the
// Figure 11/12 modifier helpers keep them valid.
func TestConfigValidatePresets(t *testing.T) {
	for _, cfg := range []Config{
		FourWide(reno.Default(0)),
		SixWide(reno.Baseline(0)),
		FourWide(reno.Default(0)).WithPhysRegs(96).WithIssue(2, 3).WithSchedLoop(2),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := FourWide(reno.Default(0))
	bad.IQSize = bad.ROBSize + 1
	if bad.Validate() == nil {
		t.Error("invalid config validated")
	}
}
