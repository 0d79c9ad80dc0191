package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"reno/internal/asm"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/reno"
	"reno/internal/workload"
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
// emulator's stream, with the budget set on the Sim, times the program
// exactly as Run over a Feed does.
func TestRunContextMatchesRun(t *testing.T) {
	p := assembleLong(t)
	cfg := FourWide(reno.Default(160))
	const budget = 50_000
	a, ha, err := runProgram(context.Background(), cfg, p.Code, 0, budget, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p.Code)
	s := New(cfg, func(d *emu.Dyn) bool {
		if m.Halted || m.ICount >= budget {
			return false
		}
		return m.Step(d) == nil
	})
	s.budget = budget
	b, err := s.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts || ha != m.StateHash() {
		t.Errorf("RunContext diverged from Run: %d/%d vs %d/%d", b.Cycles, b.Insts, a.Cycles, a.Insts)
	}
	if a.StopReason != "max-insts" || b.StopReason != "max-insts" {
		t.Errorf("stop reasons %q/%q, want max-insts", a.StopReason, b.StopReason)
	}
}

// cancelAfter runs s to the cycle budget slice, cancels ctx, and resumes
// s under it. It returns the resumed run's result, the cycle and
// instruction counts the slice ended at, and the resumed run's error.
func cancelAfter(t *testing.T, s *Sim, slice uint64) (res *Result, atCycle, atInsts uint64, err error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	first, err := s.RunContext(ctx, RunOptions{MaxCycles: slice})
	if err != nil {
		t.Fatal(err)
	}
	if first.StopReason != "cycle-budget" {
		t.Fatalf("slice stopped with %q, want cycle-budget", first.StopReason)
	}
	atCycle, atInsts = first.Cycles, first.Insts
	cancel()
	res, err = s.RunContext(ctx, RunOptions{})
	return res, atCycle, atInsts, err
}

// TestRunContextCancelReturnsPartial: a run resumed under a canceled
// context hands back the cycles it already simulated, promptly (within
// ctxCheckInterval cycles of the resume point), with the context's error.
func TestRunContextCancelReturnsPartial(t *testing.T) {
	p := assembleLong(t)
	res, at, insts, err := cancelAfter(t, newSim(t, FourWide(reno.Baseline(160)), p.Code, 0), 5_000)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v is not context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Cycles < at || res.Cycles-at > ctxCheckInterval || insts == 0 || res.Insts < insts {
		t.Errorf("resumed at cycle %d (%d insts), stopped at %d (%d insts); cancellation was not prompt",
			at, insts, res.Cycles, res.Insts)
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
	res, _, err := runProgram(ctx, FourWide(reno.Baseline(160)), p.Code, 50_000, 0, RunOptions{})
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
	res, _, err := runProgram(context.Background(), FourWide(reno.Baseline(160)), p.Code, 0, 0,
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

// missChain runs a chain of dependent loads 32 KB apart: every load misses
// both cache levels, and the next load's address waits on it, so most
// cycles are idle ones the pipeline jumps over.
const missChain = `
	addi r9, zero, 20000
loop:
	ld   r1, 0(r2)
	add  r2, r2, r1
	addi r2, r2, 4099
	subi r9, r9, 1
	bne  r9, zero, loop
	halt
`

// newMissSim builds a simulator over missChain.
func newMissSim(t *testing.T) *Sim {
	t.Helper()
	p, err := asm.Assemble(missChain)
	if err != nil {
		t.Fatal(err)
	}
	return newSim(t, FourWide(reno.Default(160)), p.Code, 0)
}

// newSim builds a simulator over code, timing from dynamic instruction
// warm on.
func newSim(t *testing.T, cfg Config, code []isa.Inst, warm uint64) *Sim {
	t.Helper()
	m, err := Warm(context.Background(), code, warm)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, NewFeed(context.Background(), m, 0).Next)
}

// TestCycleBudgetInsideIdleStretch: a cycle budget stops the run at exactly
// that cycle even when it falls inside a stretch of idle cycles the
// pipeline would otherwise jump over.
func TestCycleBudgetInsideIdleStretch(t *testing.T) {
	idle := 0 // budgets one cycle apart with nothing committed between
	var prev *Result
	for budget := uint64(20_000); budget < 20_400; budget++ {
		res, err := newMissSim(t).RunContext(context.Background(), RunOptions{MaxCycles: budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != budget || res.StopReason != "cycle-budget" {
			t.Fatalf("budget %d: stopped at cycle %d (%q)", budget, res.Cycles, res.StopReason)
		}
		if prev != nil && prev.Insts == res.Insts && prev.FetchStallCycles == res.FetchStallCycles {
			idle++
		}
		prev = res
	}
	if idle < 200 {
		t.Errorf("only %d of 400 budgets fell in an idle stretch; the program no longer stalls", idle)
	}
}

// TestSplitRunMatchesOneRun: a run stopped by a cycle budget inside an
// idle stretch and resumed under a larger one ends exactly as a single run
// under the larger budget, in every Result field.
func TestSplitRunMatchesOneRun(t *testing.T) {
	const end = 40_000
	want, err := newMissSim(t).RunContext(context.Background(), RunOptions{MaxCycles: end})
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []uint64{1, 1023, 1024, 1025, 17_001, 20_000, 33_333} {
		s := newMissSim(t)
		if _, err := s.RunContext(context.Background(), RunOptions{MaxCycles: split}); err != nil {
			t.Fatal(err)
		}
		got, err := s.RunContext(context.Background(), RunOptions{MaxCycles: end})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("split at %d:\n got %+v\nwant %+v", split, got, want)
		}
	}
}

// TestCancelDuringStall: a run resumed under a canceled context while the
// pipeline waits on a miss stops within ctxCheckInterval cycles, although
// the stall's idle cycles are jumped over rather than stepped. Cycle 20001
// lies in one of missChain's idle stretches (TestCycleBudgetInsideIdleStretch).
func TestCancelDuringStall(t *testing.T) {
	res, at, _, err := cancelAfter(t, newMissSim(t), 20_001)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if res == nil || res.StopReason != "canceled" {
		t.Fatalf("result %+v, want a canceled partial result", res)
	}
	if res.Cycles < at || res.Cycles-at > ctxCheckInterval {
		t.Errorf("canceled at cycle %d, stopped at %d: more than %d cycles later", at, res.Cycles, ctxCheckInterval)
	}
}

// unusedMiss alternates two missing loads, only the second one read: while
// the ROB is full, the oldest load's completion is the next event, and
// nothing waits on its value.
const unusedMiss = `
	addi r9, zero, 2000
loop:
	ld   r1, 0(r2)
	addi r2, r2, 4099
	ld   r3, 0(r2)
	add  r4, r4, r3
	addi r2, r2, 4099
	subi r9, r9, 1
	bne  r9, zero, loop
	halt
`

// forwardWait stores a multiply's result and loads it straight back, so
// the load waits on the store's data, behind an older load that misses.
// It also stores the missing load's value plus one: with a wakeup-select
// loop longer than the add, that store reaches the ROB head before its
// data wakes.
const forwardWait = `
	addi r9, zero, 2000
	addi r6, zero, 64
loop:
	ld   r1, 0(r2)
	addi r2, r2, 4099
	mul  r7, r9, r9
	st   r7, 0(r6)
	ld   r8, 0(r6)
	addi r11, r1, 1
	st   r11, 8(r6)
	add  r10, r10, r8
	subi r9, r9, 1
	bne  r9, zero, loop
	halt
`

// TestSkippingMatchesStepping: a run that jumps over idle cycles ends
// exactly as one stepped a cycle at a time, in every Result field. A
// one-cycle budget per RunContext call leaves no stretch to jump over, so
// the stepped run simulates every cycle; any idle cycle skipped past an
// event, or charged differently, shows up as a difference.
func TestSkippingMatchesStepping(t *testing.T) {
	const cycles = 30_000
	type program struct {
		name string
		code []isa.Inst
		warm uint64
	}
	var progs []program
	for _, src := range []struct{ name, asm string }{
		{"missChain", missChain}, {"unusedMiss", unusedMiss}, {"forwardWait", forwardWait},
	} {
		p, err := asm.Assemble(src.asm)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{src.name, p.Code, 0})
	}
	for _, name := range []string{"mcf", "parser", "vortex", "gzip"} {
		prof, _ := workload.ByName(name)
		w := workload.MustBuild(prof)
		warm, err := w.WarmupCount()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name, w.Code, warm})
	}
	for _, cfg := range []Config{
		FourWide(reno.Default(160)),
		FourWide(reno.Baseline(160)).WithSchedLoop(2),
		FourWide(reno.Default(40)).WithSchedLoop(4),
		SixWide(reno.FullIntegration(0)),
	} {
		for _, pr := range progs {
			want, err := newSim(t, cfg, pr.code, pr.warm).RunContext(context.Background(), RunOptions{MaxCycles: cycles})
			if err != nil {
				t.Fatal(err)
			}
			s := newSim(t, cfg, pr.code, pr.warm)
			var got *Result
			for c := uint64(1); c <= cycles; c++ {
				if got, err = s.RunContext(context.Background(), RunOptions{MaxCycles: c}); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: stepped run differs\n got %+v\nwant %+v", pr.name, cfg.Name, got, want)
			}
		}
	}
}
