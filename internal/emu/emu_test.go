package emu

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"reno/internal/asm"
	"reno/internal/isa"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p.Code)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
		addi r1, zero, 10
		addi r2, zero, 3
		add  r3, r1, r2   # 13
		sub  r4, r1, r2   # 7
		mul  r5, r1, r2   # 30
		div  r6, r1, r2   # 3
		and  r7, r1, r2   # 2
		or   r8, r1, r2   # 11
		xor  r9, r1, r2   # 9
		slt  r10, r2, r1  # 1
		sltu r11, r1, r2  # 0
		halt
	`)
	want := map[isa.Reg]uint64{3: 13, 4: 7, 5: 30, 6: 3, 7: 2, 8: 11, 9: 9, 10: 1, 11: 0}
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.Regs[r], v)
		}
	}
}

func TestShiftsAndNegatives(t *testing.T) {
	m := run(t, `
		addi r1, zero, -8
		srai r2, r1, 1   # -4
		srli r3, r1, 60
		slli r4, r1, 2   # -32
		addi r5, zero, 1
		sll  r6, r5, r4  # shift by -32&63 = 32
		halt
	`)
	if int64(m.Regs[2]) != -4 {
		t.Errorf("srai: %d", int64(m.Regs[2]))
	}
	if m.Regs[3] != 0xf {
		t.Errorf("srli: %#x", m.Regs[3])
	}
	if int64(m.Regs[4]) != -32 {
		t.Errorf("slli: %d", int64(m.Regs[4]))
	}
	if m.Regs[6] != 1<<32 {
		t.Errorf("sll by reg: %#x", m.Regs[6])
	}
}

func TestDivByZero(t *testing.T) {
	m := run(t, `
		addi r1, zero, 5
		div  r2, r1, zero
		halt
	`)
	if m.Regs[2] != 0 {
		t.Errorf("div by zero = %d, want 0", m.Regs[2])
	}
}

func TestMemory(t *testing.T) {
	m := run(t, `
		addi r1, zero, 1000
		addi r2, zero, 77
		st   r2, 8(r1)
		ld   r3, 8(r1)
		ld   r4, 16(r1)  # untouched -> 0
		st   r2, -8(sp)
		ld   r5, -8(sp)
		halt
	`)
	if m.Regs[3] != 77 {
		t.Errorf("ld after st = %d", m.Regs[3])
	}
	if m.Regs[4] != 0 {
		t.Errorf("untouched memory = %d", m.Regs[4])
	}
	if m.Regs[5] != 77 {
		t.Errorf("stack slot = %d", m.Regs[5])
	}
}

func TestLoopAndBranches(t *testing.T) {
	m := run(t, `
		addi r1, zero, 0   # sum
		addi r2, zero, 10  # i
	loop:
		add  r1, r1, r2
		subi r2, r2, 1
		bne  r2, zero, loop
		halt
	`)
	if m.Regs[1] != 55 {
		t.Errorf("sum 1..10 = %d, want 55", m.Regs[1])
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, `
		addi r16, zero, 20
		call double
		move r9, r0
		call double2   # via indirect
		halt
	double:
		add r0, r16, r16
		ret
	double2:
		add r0, r9, r9
		ret
	`)
	if m.Regs[9] != 40 {
		t.Errorf("first call result = %d, want 40", m.Regs[9])
	}
	if m.Regs[0] != 80 {
		t.Errorf("second call result = %d, want 80", m.Regs[0])
	}
}

func TestStackSpillFill(t *testing.T) {
	// The idiom RENO.RA targets: store to stack, adjust sp, restore.
	m := run(t, `
		addi r1, zero, 123
		st   r1, 8(sp)
		subi sp, sp, 16
		addi r1, zero, 0    # clobber
		addi sp, sp, 16
		ld   r2, 8(sp)
		halt
	`)
	if m.Regs[2] != 123 {
		t.Errorf("spill/fill = %d, want 123", m.Regs[2])
	}
}

func TestZeroRegister(t *testing.T) {
	m := run(t, `
		addi zero, zero, 55
		add  zero, zero, zero
		addi r1, zero, 7
		halt
	`)
	if m.Regs[isa.RZero] != 0 {
		t.Errorf("zero register modified: %d", m.Regs[isa.RZero])
	}
	if m.Regs[1] != 7 {
		t.Errorf("r1 = %d", m.Regs[1])
	}
}

func TestRunLimit(t *testing.T) {
	p := asm.MustAssemble(`
	spin:
		jmp spin
	`)
	m := New(p.Code)
	err := m.Run(100)
	if !errors.Is(err, ErrNoHalt) {
		t.Errorf("err = %v, want ErrNoHalt", err)
	}
	if m.ICount != 100 {
		t.Errorf("icount = %d, want 100", m.ICount)
	}
}

func TestPCOutOfRange(t *testing.T) {
	m := New([]isa.Inst{isa.Addi(1, isa.RZero, 1)}) // no halt
	m.Regs[isa.RSP] = 0
	var d Dyn
	err := m.Step(&d)
	if err != nil {
		t.Fatalf("first step: %v", err)
	}
	err = m.Step(&d)
	if !errors.Is(err, ErrPCRange) {
		t.Errorf("err = %v, want ErrPCRange", err)
	}
}

func TestDynRecords(t *testing.T) {
	p := asm.MustAssemble(`
		addi r1, zero, 4
		ld   r2, 8(r1)
		beq  r2, zero, skip
		addi r3, zero, 1
	skip:
		halt
	`)
	tr, err := CollectTrace(p.Code, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 4 { // addi, ld, beq(taken), halt
		t.Fatalf("trace length = %d, want 4", len(tr))
	}
	if tr[1].EA != 12 {
		t.Errorf("load EA = %d, want 12", tr[1].EA)
	}
	if !tr[2].Taken || tr[2].NextPC != 4 {
		t.Errorf("branch record: taken=%v next=%d", tr[2].Taken, tr[2].NextPC)
	}
	if tr[0].Result != 4 {
		t.Errorf("addi result = %d", tr[0].Result)
	}
}

func TestMemorySparseQuick(t *testing.T) {
	// Property: store then load at arbitrary addresses round-trips, and
	// loads at never-stored addresses read zero.
	mem := NewMemory()
	written := map[uint64]uint64{}
	f := func(addr, val uint64) bool {
		addr %= 1 << 40
		mem.Store(addr, val)
		written[addr] = val
		return mem.Load(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for a, v := range written {
		if mem.Load(a) != v {
			t.Fatalf("addr %d: got %d want %d", a, mem.Load(a), v)
		}
	}
	if mem.Load(1<<41+12345) != 0 {
		t.Error("unwritten address is non-zero")
	}
}

func TestStateHashSensitivity(t *testing.T) {
	p := asm.MustAssemble(`
		addi r1, zero, 1
		halt
	`)
	m1 := New(p.Code)
	if err := m1.Run(10); err != nil {
		t.Fatal(err)
	}
	m2 := New(p.Code)
	if err := m2.Run(10); err != nil {
		t.Fatal(err)
	}
	if m1.StateHash() != m2.StateHash() {
		t.Error("identical runs hash differently")
	}
	m2.Regs[5] = 99
	if m1.StateHash() == m2.StateHash() {
		t.Error("register difference not reflected in hash")
	}
	m2.Regs[5] = 0
	m2.Mem.Store(424242, 1)
	if m1.StateHash() == m2.StateHash() {
		t.Error("memory difference not reflected in hash")
	}
}

func TestLuiOri(t *testing.T) {
	m := run(t, `
		li r1, 0x12345678
		halt
	`)
	if m.Regs[1] != 0x12345678 {
		t.Errorf("li large = %#x", m.Regs[1])
	}
}

// snapProg stores to two pages, loops, and halts, so a snapshot taken
// mid-run carries registers, memory and a PC inside the loop.
const snapProg = `
		addi r1, zero, 7
		st   r1, 0(zero)
		lui  r2, 1
		st   r1, 0(r2)
		addi r3, zero, 50
	loop:
		ld   r4, 0(r2)
		add  r4, r4, r3
		st   r4, 0(r2)
		subi r3, r3, 1
		bne  r3, zero, loop
		halt
`

// TestSnapshotResumes: machines started from a snapshot continue exactly
// as the machine it was taken from would have, each on its own copy of
// memory, and running them leaves the snapshot unchanged.
func TestSnapshotResumes(t *testing.T) {
	p := asm.MustAssemble(snapProg)
	ref := New(p.Code)
	if err := ref.Run(1_000); err != nil {
		t.Fatal(err)
	}
	m := New(p.Code)
	if ok, err := m.Advance(nil, 20, NoStop); !ok || err != nil {
		t.Fatalf("advance: %v %v", ok, err)
	}
	hash := m.StateHash()
	s := m.Freeze()
	if !m.Halted || m.Mem != nil || m.Code != nil {
		t.Error("Freeze left the machine usable")
	}
	if s.ICount() != 20 || s.StateHash() != hash {
		t.Fatalf("snapshot at %d insts, hash %016x; want 20, %016x", s.ICount(), s.StateHash(), hash)
	}
	for i := 0; i < 2; i++ {
		c := s.Machine()
		if c.StateHash() != hash {
			t.Fatalf("copy %d starts at hash %016x, want %016x", i, c.StateHash(), hash)
		}
		if err := c.Run(1_000); err != nil {
			t.Fatal(err)
		}
		if c.StateHash() != ref.StateHash() || c.ICount != ref.ICount {
			t.Errorf("copy %d ended at %016x after %d insts, want %016x after %d",
				i, c.StateHash(), c.ICount, ref.StateHash(), ref.ICount)
		}
	}
	if s.StateHash() != hash || s.ICount() != 20 {
		t.Error("running copies changed the snapshot")
	}
}

// TestAdvanceStops: Advance stops at the stop PC (checked before each
// instruction), at the instruction limit, at halt, and when done is closed
// at a PollInterval multiple.
func TestAdvanceStops(t *testing.T) {
	p := asm.MustAssemble(snapProg)
	loop := uint64(p.Symbols["loop"])

	m := New(p.Code)
	if ok, err := m.Advance(nil, NoStop, loop); !ok || err != nil || m.PC != loop || m.ICount != loop {
		t.Errorf("stop PC: ok %v err %v pc %d icount %d, want pc %d", ok, err, m.PC, m.ICount, loop)
	}
	if ok, _ := m.Advance(nil, NoStop, loop); !ok || m.ICount != loop {
		t.Error("Advance stepped past a stop PC it starts on")
	}
	if ok, err := m.Advance(nil, 12, NoStop); !ok || err != nil || m.ICount != 12 {
		t.Errorf("limit: ok %v err %v icount %d, want 12", ok, err, m.ICount)
	}
	if ok, err := m.Advance(nil, NoStop, NoStop); !ok || err != nil || !m.Halted {
		t.Errorf("halt: ok %v err %v halted %v", ok, err, m.Halted)
	}

	done := make(chan struct{})
	close(done)
	c := New(p.Code)
	if ok, err := c.Advance(done, NoStop, NoStop); ok || err != nil || c.ICount != 0 {
		t.Errorf("closed done: ok %v err %v icount %d, want a stop before the first instruction", ok, err, c.ICount)
	}
}

// TestStepOverwritesRecord: Step fills every field of the record it is
// given, so a reused record carries nothing over from the last step.
func TestStepOverwritesRecord(t *testing.T) {
	p := asm.MustAssemble(snapProg)
	a, b := New(p.Code), New(p.Code)
	dirty := Dyn{PC: 99, NextPC: 99, EA: 99, Taken: true, Facts: isa.Predecode(isa.Halt), Result: 99, SrcVals: [2]uint64{99, 99}}
	for !a.Halted {
		var fresh Dyn
		if err := a.Step(&fresh); err != nil {
			t.Fatal(err)
		}
		reused := dirty
		if err := b.Step(&reused); err != nil {
			t.Fatal(err)
		}
		if fresh != reused {
			t.Fatalf("pc %d: reused record %+v, fresh %+v", fresh.PC, reused, fresh)
		}
	}
}

// TestDynSize: the predecoded facts fill the padding after Taken, so the
// trace record, copied into every in-flight entry, stays 64 bytes.
func TestDynSize(t *testing.T) {
	if n := unsafe.Sizeof(Dyn{}); n != 64 {
		t.Errorf("Dyn is %d bytes, want 64", n)
	}
}
