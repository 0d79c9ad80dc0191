package isa

import "testing"

// TestOpcodeQueriesPinned pins every per-opcode ISA query on one fixed
// operand pattern, for each defined opcode and for three undefined ones.
// The expected values were produced by the switch-based queries that the
// opcode table replaced, so the table must answer exactly as they did.
func TestOpcodeQueriesPinned(t *testing.T) {
	pins := []struct {
		op                Op
		format            Format
		classRA, classR5  Class // ClassOf with Rs = ra and with Rs = r5
		nsrc              int
		src1, src2        Reg
		destZero, destReg bool // HasDest with Rd = zero and with Rd = r3
		word              uint32
		text              string
	}{
		{OpNop, FmtN, ClassNop, ClassNop, 0, RZero, RZero, false, false, 0x00000000, "nop"},
		{OpAddi, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x0465000c, "addi r3, r5, 12"},
		{OpSubi, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x0865000c, "subi r3, r5, 12"},
		{OpAndi, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x0c65000c, "andi r3, r5, 12"},
		{OpOri, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x1065000c, "ori r3, r5, 12"},
		{OpXori, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x1465000c, "xori r3, r5, 12"},
		{OpSlli, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x1865000c, "slli r3, r5, 12"},
		{OpSrli, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x1c65000c, "srli r3, r5, 12"},
		{OpSrai, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x2065000c, "srai r3, r5, 12"},
		{OpLui, FmtI, ClassIntALU, ClassIntALU, 1, 5, RZero, false, true, 0x2465000c, "lui r3, 12"},
		{OpAdd, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x28653800, "add r3, r5, r7"},
		{OpSub, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x2c653800, "sub r3, r5, r7"},
		{OpAnd, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x30653800, "and r3, r5, r7"},
		{OpOr, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x34653800, "or r3, r5, r7"},
		{OpXor, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x38653800, "xor r3, r5, r7"},
		{OpSll, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x3c653800, "sll r3, r5, r7"},
		{OpSrl, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x40653800, "srl r3, r5, r7"},
		{OpSra, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x44653800, "sra r3, r5, r7"},
		{OpSlt, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x48653800, "slt r3, r5, r7"},
		{OpSltu, FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x4c653800, "sltu r3, r5, r7"},
		{OpMul, FmtR, ClassIntMul, ClassIntMul, 2, 5, 7, false, true, 0x50653800, "mul r3, r5, r7"},
		{OpDiv, FmtR, ClassIntMul, ClassIntMul, 2, 5, 7, false, true, 0x54653800, "div r3, r5, r7"},
		{OpFAdd, FmtR, ClassFP, ClassFP, 2, 5, 7, false, true, 0x58653800, "fadd r3, r5, r7"},
		{OpFMul, FmtR, ClassFP, ClassFP, 2, 5, 7, false, true, 0x5c653800, "fmul r3, r5, r7"},
		{OpLd, FmtI, ClassLoad, ClassLoad, 1, 5, RZero, false, true, 0x6065000c, "ld r3, 12(r5)"},
		{OpSt, FmtB, ClassStore, ClassStore, 2, 5, 7, false, false, 0x64a7000c, "st r7, 12(r5)"},
		{OpBeq, FmtB, ClassBranch, ClassBranch, 2, 5, 7, false, false, 0x68a7000c, "beq r5, r7, 12"},
		{OpBne, FmtB, ClassBranch, ClassBranch, 2, 5, 7, false, false, 0x6ca7000c, "bne r5, r7, 12"},
		{OpBlt, FmtB, ClassBranch, ClassBranch, 2, 5, 7, false, false, 0x70a7000c, "blt r5, r7, 12"},
		{OpBge, FmtB, ClassBranch, ClassBranch, 2, 5, 7, false, false, 0x74a7000c, "bge r5, r7, 12"},
		{OpJmp, FmtJ, ClassBranch, ClassBranch, 0, RZero, RZero, false, false, 0x7860000c, "jmp 12"},
		{OpJal, FmtJ, ClassCall, ClassCall, 0, RZero, RZero, false, true, 0x7c60000c, "jal r3, 12"},
		{OpJr, FmtR, ClassReturn, ClassBranch, 1, 5, RZero, false, false, 0x80653800, "jr r5"},
		{OpJalr, FmtR, ClassCall, ClassCall, 1, 5, RZero, false, true, 0x84653800, "jalr r3, r5"},
		{OpHalt, FmtN, ClassHalt, ClassHalt, 0, RZero, RZero, false, false, 0x88000000, "halt"},
		{Op(35), FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0x8c653800, "op(35) r3, r5, r7"},
		{Op(63), FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0xfc653800, "op(63) r3, r5, r7"},
		{Op(255), FmtR, ClassIntALU, ClassIntALU, 2, 5, 7, false, true, 0xfc653800, "op(255) r3, r5, r7"},
	}
	if want := NumOps + 3; len(pins) != want {
		t.Fatalf("%d pins, want %d", len(pins), want)
	}
	for _, p := range pins {
		in := Inst{Op: p.op, Rd: 3, Rs: 5, Rt: 7, Imm: 12}
		ra, zero := in, in
		ra.Rs = RRA
		zero.Rd = RZero
		if got := FormatOf(p.op); got != p.format {
			t.Errorf("FormatOf(%v) = %d, want %d", p.op, got, p.format)
		}
		if got := ClassOf(ra); got != p.classRA {
			t.Errorf("ClassOf(%v) with rs=ra = %v, want %v", p.op, got, p.classRA)
		}
		if got := ClassOf(in); got != p.classR5 {
			t.Errorf("ClassOf(%v) with rs=r5 = %v, want %v", p.op, got, p.classR5)
		}
		if got := NumSources(in); got != p.nsrc {
			t.Errorf("NumSources(%v) = %d, want %d", p.op, got, p.nsrc)
		}
		if s1, s2 := Sources(in); s1 != p.src1 || s2 != p.src2 {
			t.Errorf("Sources(%v) = %v, %v, want %v, %v", p.op, s1, s2, p.src1, p.src2)
		}
		if got := HasDest(zero); got != p.destZero {
			t.Errorf("HasDest(%v) with rd=zero = %v, want %v", p.op, got, p.destZero)
		}
		if got := HasDest(in); got != p.destReg {
			t.Errorf("HasDest(%v) with rd=r3 = %v, want %v", p.op, got, p.destReg)
		}
		if got := uint32(Encode(in)); got != p.word {
			t.Errorf("Encode(%v) = %#08x, want %#08x", p.op, got, p.word)
		}
		if got := in.String(); got != p.text {
			t.Errorf("String(%v) = %q, want %q", p.op, got, p.text)
		}
	}
}

// TestClassNamesPinned pins the name of every instruction class.
func TestClassNamesPinned(t *testing.T) {
	want := []string{"nop", "alu", "mul", "fp", "load", "store", "branch", "call", "return", "halt", "?"}
	for c, name := range want {
		if got := Class(c).String(); got != name {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, name)
		}
	}
}
