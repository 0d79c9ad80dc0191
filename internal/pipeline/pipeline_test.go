package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"reno/internal/asm"
	"reno/internal/isa"
	"reno/internal/reno"
)

// runProgram times code on cfg as the detailed backend does without a
// snapshot: Warm runs the warmup, a Feed budgets the run, and Run times
// it. It also returns the final architectural state hash.
func runProgram(ctx context.Context, cfg Config, code []isa.Inst, warmup, budget uint64, opts RunOptions) (*Result, uint64, error) {
	m, err := Warm(ctx, code, warmup)
	if err != nil {
		return nil, 0, err
	}
	f := NewFeed(ctx, m, budget)
	res, err := Run(ctx, cfg, f, opts)
	return res, f.ArchHash(), err
}

func mustRun(t *testing.T, cfg Config, src string) (*Result, uint64) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, hash, err := runProgram(context.Background(), cfg, p.Code, 0, 0, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res, hash
}

const straightLine = `
	addi r1, zero, 1
	addi r2, zero, 2
	addi r3, zero, 3
	addi r4, zero, 4
	addi r5, zero, 5
	addi r6, zero, 6
	addi r7, zero, 7
	addi r8, zero, 8
	halt
`

func TestStraightLineCommitsEverything(t *testing.T) {
	res, _ := mustRun(t, FourWide(reno.Baseline(160)), straightLine)
	if res.Insts != 9 {
		t.Errorf("committed %d, want 9", res.Insts)
	}
	if res.Cycles == 0 || res.IPC <= 0 {
		t.Errorf("cycles=%d ipc=%f", res.Cycles, res.IPC)
	}
	if res.IPC > float64(res.Config.CommitWidth) {
		t.Errorf("IPC %f exceeds commit width", res.IPC)
	}
}

const indepLoop = `
	addi r9, zero, 200
loop:
	addi r1, r1, 1
	add  r2, r2, r1
	xor  r3, r3, r2
	subi r9, r9, 1
	bne  r9, zero, loop
	halt
`

func TestLoopIPCReasonable(t *testing.T) {
	res, _ := mustRun(t, FourWide(reno.Baseline(160)), indepLoop)
	if res.IPC < 0.8 {
		t.Errorf("loop IPC = %.2f, expected pipelined execution (>0.8)", res.IPC)
	}
	if res.BranchAccuracy < 0.9 {
		t.Errorf("predictable loop branch accuracy = %.2f", res.BranchAccuracy)
	}
}

// foldChainLoop builds a loop whose body is a serial chain of foldable
// addis; the loop form keeps the I$ warm after the first iteration so the
// measurement reflects the chain, not cold-start instruction misses.
func foldChainLoop(iters, chain int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "add r1, r2, r3\naddi r9, zero, %d\nloop:\n", iters)
	for i := 0; i < chain; i++ {
		b.WriteString("addi r1, r1, 1\n")
	}
	b.WriteString("subi r9, r9, 1\nbne r9, zero, loop\nadd r4, r1, r1\nhalt\n")
	return b.String()
}

// TestDependentChainBaselineVsCF: a serial chain of register-immediate
// additions paces the baseline at ~1 cycle per addi; RENO.CF folds
// alternating links (the same-cycle dependence rule blocks pairs renamed
// together) and roughly halves the chain's critical path.
func TestDependentChainBaselineVsCF(t *testing.T) {
	src := foldChainLoop(20, 24)

	base, hashB := mustRun(t, FourWide(reno.Baseline(160)), src)
	renoRes, hashR := mustRun(t, FourWide(reno.MECF(160)), src)

	if hashB != hashR {
		t.Fatal("architectural state differs between baseline and RENO")
	}
	if base.Insts != renoRes.Insts {
		t.Fatalf("committed counts differ: %d vs %d", base.Insts, renoRes.Insts)
	}
	// ~480 dynamic addis; the group rule caps same-cycle dependent folds,
	// so expect roughly half eliminated.
	if got := renoRes.Reno.Eliminated[reno.KindCF]; got < 180 {
		t.Errorf("CF eliminated %d foldable addis, want >= 180", got)
	}
	speedup := float64(base.Cycles) / float64(renoRes.Cycles)
	if speedup < 1.3 {
		t.Errorf("fold-chain speedup = %.2fx, want >= 1.3x", speedup)
	}
}

func TestMoveEliminationCollapsesDataflow(t *testing.T) {
	var b strings.Builder
	b.WriteString("add r1, r2, r3\naddi r9, zero, 20\nloop:\n")
	for i := 0; i < 12; i++ {
		b.WriteString("move r2, r1\nmove r1, r2\n")
	}
	b.WriteString("addi r1, r1, 3\nsubi r9, r9, 1\nbne r9, zero, loop\nhalt\n")
	src := b.String()

	base, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	me, _ := mustRun(t, FourWide(reno.Config{PhysRegs: 160, EnableME: true}), src)
	if me.Reno.Eliminated[reno.KindME] < 200 {
		t.Errorf("ME eliminated %d of 480 moves", me.Reno.Eliminated[reno.KindME])
	}
	if me.Cycles >= base.Cycles {
		t.Errorf("ME (%d cycles) not faster than baseline (%d)", me.Cycles, base.Cycles)
	}
}

func TestEliminatedInstructionsFreeResources(t *testing.T) {
	src := foldChainLoop(20, 24)
	base, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	cf, _ := mustRun(t, FourWide(reno.MECF(160)), src)
	if cf.AvgPregsInUse >= base.AvgPregsInUse {
		t.Errorf("CF average preg use %.1f, baseline %.1f: elimination should reduce it",
			cf.AvgPregsInUse, base.AvgPregsInUse)
	}
	if cf.AvgIQOcc >= base.AvgIQOcc {
		t.Errorf("CF IQ occupancy %.1f, baseline %.1f", cf.AvgIQOcc, base.AvgIQOcc)
	}
}

const storeLoadSrc = `
	addi r1, zero, 1000
	addi r2, zero, 77
	st   r2, 8(r1)
	ld   r3, 8(r1)
	add  r4, r3, r3
	halt
`

func TestStoreToLoadPath(t *testing.T) {
	res, _ := mustRun(t, FourWide(reno.Baseline(160)), storeLoadSrc)
	if res.Insts != 6 {
		t.Errorf("committed %d", res.Insts)
	}
	if res.OrderViolations != 0 {
		t.Errorf("unexpected order violations: %d", res.OrderViolations)
	}
}

func TestRABypassEliminatesStackLoad(t *testing.T) {
	// The padding keeps the dependent sp adjustments out of a single
	// rename group (the same-cycle rule would force the second one to
	// execute, breaking the name match — as it would in hardware).
	src := `
	addi r1, zero, 42
	st   r1, 8(sp)
	subi sp, sp, 16
	add  r20, r21, r22
	add  r23, r21, r22
	add  r24, r21, r22
	addi sp, sp, 16
	add  r25, r21, r22
	add  r27, r21, r22
	add  r28, r21, r22
	ld   r2, 8(sp)
	add  r3, r2, r2
	halt
	`
	res, _ := mustRun(t, FourWide(reno.Default(160)), src)
	if res.Reno.Eliminated[reno.KindRALoad] != 1 {
		t.Errorf("RA eliminated %d loads, want 1 (total stats: %+v)",
			res.Reno.Eliminated[reno.KindRALoad], res.Reno)
	}
	if res.ReexecFails != 0 {
		t.Errorf("clean bypass failed re-execution %d times", res.ReexecFails)
	}
}

// TestReexecMismatchSquashes: an aliasing store through a different base
// register invalidates a bypass the IT cannot see; retirement re-execution
// must catch it and the machine must still commit the correct count.
func TestReexecMismatchSquashes(t *testing.T) {
	src := `
	addi r1, zero, 1000
	addi r5, zero, 1000   # alias of r1
	addi r2, zero, 77
	st   r2, 8(r1)
	ld   r3, 8(r1)        # creates IT entry / warms bypass
	addi r4, zero, 88
	st   r4, 8(r5)        # aliasing write: IT signature unaffected
	ld   r6, 8(r1)        # integrates stale 77, re-exec sees 88
	add  r7, r6, r6
	halt
	`
	res, hash := mustRun(t, FourWide(reno.Default(160)), src)
	if res.ReexecFails == 0 {
		t.Error("aliasing bypass not caught by retirement re-execution")
	}
	if res.Insts != 10 {
		t.Errorf("committed %d, want 10", res.Insts)
	}
	// Equivalence with the baseline machine.
	_, baseHash := mustRun(t, FourWide(reno.Baseline(160)), src)
	if hash != baseHash {
		t.Error("architectural state diverged after re-execution squash")
	}
	if res.Replays == 0 {
		t.Error("mismatch did not replay")
	}
}

// TestMemoryOrderViolation: a store whose address resolves late while an
// independent younger load to the same address issues early.
func TestMemoryOrderViolation(t *testing.T) {
	src := `
	addi r1, zero, 1000
	addi r9, zero, 99
	st   r9, 0(r1)      # plant initial value
	mul  r2, r1, r1     # slow chain: r2 = 1000000...
	div  r3, r2, r1     # ...r3 = 1000 == r1, resolved ~27 cycles later
	addi r4, zero, 55
	st   r4, 0(r3)      # address resolves late
	ld   r5, 0(r1)      # same address, issues early -> violation
	add  r6, r5, r5
	halt
	`
	res, hash := mustRun(t, FourWide(reno.Baseline(160)), src)
	if res.OrderViolations == 0 {
		t.Error("expected a memory-order violation")
	}
	if res.Insts != 10 {
		t.Errorf("committed %d, want 10", res.Insts)
	}
	_, hash2 := mustRun(t, FourWide(reno.Baseline(160)), src)
	if hash != hash2 {
		t.Error("non-deterministic result")
	}
}

func TestTwoCycleSchedulerSlowsDependentChain(t *testing.T) {
	var b strings.Builder
	b.WriteString("add r1, r2, r3\naddi r9, zero, 20\nloop:\n")
	for i := 0; i < 24; i++ {
		b.WriteString("add r1, r1, r3\n") // serial reg-reg chain: not foldable
	}
	b.WriteString("subi r9, r9, 1\nbne r9, zero, loop\nhalt\n")
	src := b.String()
	c1, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	c2, _ := mustRun(t, FourWide(reno.Baseline(160)).WithSchedLoop(2), src)
	ratio := float64(c2.Cycles) / float64(c1.Cycles)
	if ratio < 1.5 {
		t.Errorf("2-cycle scheduler slowdown = %.2fx on serial chain, want >= 1.5x", ratio)
	}
}

func TestFewerPregsHurtsBaseline(t *testing.T) {
	// A serial 20-cycle divide chain paces each iteration while 30
	// independent adds per iteration fill the window: the achievable
	// overlap is bounded by how many in-flight destinations the register
	// file can hold, so a small file costs real cycles.
	var b strings.Builder
	b.WriteString("addi r9, zero, 40\naddi r1, zero, 7\nloop:\n")
	b.WriteString("div r1, r1, r1\naddi r1, r1, 6\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "add r%d, r%d, r28\n", 2+i%8, 2+i%8)
	}
	b.WriteString("subi r9, r9, 1\nbne r9, zero, loop\nhalt\n")
	src := b.String()
	big, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	small, _ := mustRun(t, FourWide(reno.Baseline(40)), src)
	if small.Cycles <= big.Cycles {
		t.Errorf("40-preg machine (%d cycles) not slower than 160-preg (%d)",
			small.Cycles, big.Cycles)
	}
	if small.RenameStallPregs == 0 {
		t.Error("small register file never stalled rename")
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// Data-dependent branches from a multiplicative mixer: unpredictable.
	src := `
	addi r9, zero, 400
	addi r8, zero, 37
loop:
	mul  r8, r8, r8
	addi r8, r8, 12345
	srli r7, r8, 3
	andi r7, r7, 1
	beq  r7, zero, skip
	addi r3, r3, 1
skip:
	subi r9, r9, 1
	bne  r9, zero, loop
	halt
	`
	res, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	if res.Mispredicts == 0 {
		t.Error("no mispredictions on coin-flip branches")
	}
	if res.FetchStallCycles == 0 {
		t.Error("mispredictions caused no fetch stalls")
	}
}

func TestSixWideFasterThanFourWide(t *testing.T) {
	// Wide independent work benefits from more issue bandwidth.
	var b strings.Builder
	b.WriteString("addi r9, zero, 100\nloop:\n")
	for r := 1; r <= 8; r++ {
		b.WriteString("addi r")
		b.WriteByte(byte('0' + r))
		b.WriteString(", r")
		b.WriteByte(byte('0' + r))
		b.WriteString(", 1\n")
	}
	b.WriteString("subi r9, r9, 1\nbne r9, zero, loop\nhalt\n")
	src := b.String()
	w4, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	w6, _ := mustRun(t, SixWide(reno.Baseline(160)), src)
	if w6.Cycles >= w4.Cycles {
		t.Errorf("6-wide (%d cycles) not faster than 4-wide (%d)", w6.Cycles, w4.Cycles)
	}
}

func TestNarrowIssueSlower(t *testing.T) {
	var b strings.Builder
	b.WriteString("addi r9, zero, 150\nloop:\n")
	for r := 1; r <= 6; r++ {
		b.WriteString("addi r")
		b.WriteByte(byte('0' + r))
		b.WriteString(", r")
		b.WriteByte(byte('0' + r))
		b.WriteString(", 1\n")
	}
	b.WriteString("subi r9, r9, 1\nbne r9, zero, loop\nhalt\n")
	src := b.String()
	full, _ := mustRun(t, FourWide(reno.Baseline(160)), src)
	narrow, _ := mustRun(t, FourWide(reno.Baseline(160)).WithIssue(2, 2), src)
	if narrow.Cycles <= full.Cycles {
		t.Errorf("2-wide issue (%d) not slower than 4-wide (%d)", narrow.Cycles, full.Cycles)
	}
}

func TestCPABreakdownSums(t *testing.T) {
	p, err := asm.Assemble(indepLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runProgram(context.Background(), FourWide(reno.Baseline(160)), p.Code, 0, 0, RunOptions{CPAChunk: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPA == nil {
		t.Fatal("no CPA attached")
	}
	pct := res.CPA.Percent()
	var sum float64
	for _, v := range pct {
		sum += v
	}
	if sum < 99 || sum > 101 {
		t.Errorf("CPA percentages sum to %.1f", sum)
	}
}

func TestWarmupSkipsTiming(t *testing.T) {
	p, err := asm.Assemble(straightLine)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runProgram(context.Background(), FourWide(reno.Baseline(160)), p.Code, 5, 0, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 4 { // 9 total - 5 warmed up
		t.Errorf("timed instructions = %d, want 4", res.Insts)
	}
}

func TestMaxInstsBudget(t *testing.T) {
	p, err := asm.Assemble(indepLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runProgram(context.Background(), FourWide(reno.Baseline(160)), p.Code, 0, 100, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts < 100 || res.Insts > 110 {
		t.Errorf("committed %d with a 100-instruction budget", res.Insts)
	}
}

// TestEntrySize keeps the in-flight entry, built in place at fetch and
// walked by every stage, from growing: it points at the engine's rename
// record instead of holding a copy, and the predecoded facts ride in the
// trace record's padding and replace the class the entry used to keep.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 184 {
		t.Errorf("entry is %d bytes, want at most 184", n)
	}
}
