// Package isa defines AXP32, the Alpha-flavoured RISC instruction set used
// throughout the RENO reproduction.
//
// AXP32 is deliberately shaped like the subset of the Alpha AXP ISA that the
// RENO paper's optimizations key on: register moves are register-immediate
// additions with a zero immediate, loads and stores use base+displacement
// addressing with 16-bit displacements, and the stack is managed with
// register-immediate additions to a dedicated stack-pointer register.
//
// The ISA has 32 logical integer registers. Register 31 (RZero) always reads
// as zero and writes to it are discarded, as on Alpha. Register 30 (RSP) is
// the stack pointer by software convention; the hardware treats it like any
// other register, but the RENO.RA optimization recognizes it for reverse
// integration-table entries.
//
// One opcode table (table.go) answers the ISA queries (ClassOf, HasDest,
// Sources, IsMove, ...). The simulator asks them once per static
// instruction: Predecode packs their answers into a Facts word, which the
// emulator, the elimination engine and the pipeline read per dynamic
// instruction.
package isa

import "fmt"

// NumLogicalRegs is the number of architectural integer registers.
const NumLogicalRegs = 32

// Reg names a logical (architectural) register.
type Reg uint8

// Well-known registers by software convention.
const (
	RV0   Reg = 0  // function return value
	RA0   Reg = 16 // first argument register
	RRA   Reg = 26 // return address
	RGP   Reg = 29 // global pointer
	RSP   Reg = 30 // stack pointer
	RZero Reg = 31 // hardwired zero
)

func (r Reg) String() string {
	switch r {
	case RSP:
		return "sp"
	case RZero:
		return "zero"
	case RRA:
		return "ra"
	case RGP:
		return "gp"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op enumerates AXP32 opcodes.
type Op uint8

const (
	// OpNop performs no operation and writes no register.
	OpNop Op = iota

	// Integer register-immediate operations. OpAddi is the instruction
	// RENO.CF folds; a move is encoded as OpAddi with immediate zero.
	OpAddi // rd = rs + imm16 (sign-extended)
	OpSubi // rd = rs - imm16
	OpAndi // rd = rs & imm16 (zero-extended)
	OpOri  // rd = rs | imm16
	OpXori // rd = rs ^ imm16
	OpSlli // rd = rs << shamt
	OpSrli // rd = rs >> shamt (logical)
	OpSrai // rd = rs >> shamt (arithmetic)
	OpLui  // rd = imm16 << 16

	// Integer register-register operations.
	OpAdd  // rd = rs + rt
	OpSub  // rd = rs - rt
	OpAnd  // rd = rs & rt
	OpOr   // rd = rs | rt
	OpXor  // rd = rs ^ rt
	OpSll  // rd = rs << (rt & 63)
	OpSrl  // rd = rs >> (rt & 63)
	OpSra  // rd = rs >> (rt & 63) arithmetic
	OpSlt  // rd = (rs < rt) signed ? 1 : 0
	OpSltu // rd = (rs < rt) unsigned ? 1 : 0
	OpMul  // rd = rs * rt (multi-cycle)
	OpDiv  // rd = rs / rt (multi-cycle; div by zero -> 0)

	// Floating point stand-ins: long-latency ALU ops on the integer file.
	// They exist so that FP-heavy benchmark mixes (mesa, epic) are
	// representable; a real FP register file is out of scope.
	OpFAdd // rd = rs + rt, FP-latency
	OpFMul // rd = rs * rt, FP-latency

	// Memory operations: base+displacement addressing, 16-bit displacement.
	OpLd // rd = MEM[rs + imm16]  (64-bit)
	OpSt // MEM[rs + imm16] = rt  (64-bit)

	// Control transfer.
	OpBeq  // if rs == rt: PC += imm16 words
	OpBne  // if rs != rt
	OpBlt  // if rs <  rt signed
	OpBge  // if rs >= rt signed
	OpJmp  // unconditional PC-relative jump
	OpJal  // rd = return address; PC += imm16 words (call)
	OpJr   // PC = rs (indirect jump / return)
	OpJalr // rd = return address; PC = rs (indirect call)

	// OpHalt stops the machine; used to end freestanding programs.
	OpHalt

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

func (o Op) String() string {
	if int(o) < NumOps {
		return opTable[o].Name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class is a coarse instruction category used by the pipeline for issue-port
// selection and by the critical-path analyzer for edge bucketing.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul // multi-cycle integer (mul/div)
	ClassFP     // FP stand-ins
	ClassLoad
	ClassStore
	ClassBranch // conditional branches and direct jumps
	ClassCall   // jal/jalr
	ClassReturn // jr used as return (operand RRA)
	ClassHalt
)

var classNames = [...]string{
	ClassNop: "nop", ClassIntALU: "alu", ClassIntMul: "mul", ClassFP: "fp",
	ClassLoad: "load", ClassStore: "store", ClassBranch: "branch",
	ClassCall: "call", ClassReturn: "return", ClassHalt: "halt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "?"
}

// Inst is a decoded AXP32 instruction.
//
// Register fields follow the convention rd = f(rs, rt, imm). Unused register
// fields are set to RZero so that downstream consumers (renamer, emulator)
// can treat every instruction uniformly.
type Inst struct {
	Op  Op
	Rd  Reg   // destination (RZero when none)
	Rs  Reg   // first source
	Rt  Reg   // second source (store data register for OpSt)
	Imm int32 // sign-extended 16-bit immediate / shift amount / branch offset in words
}

// Word is an encoded 32-bit AXP32 instruction. Every format has the same
// opcode and two register fields; the low 16 bits hold either an immediate
// or a third register:
//
//	immediate  opcode(6) | reg(5) | reg(5) | imm(16)          I, B, J formats
//	register   opcode(6) | rd(5)  | rs(5)  | rt(5) | zero(11) R format
//
// The two register fields hold rd, rs for FmtI; rs, rt for FmtB; rd and
// zero for FmtJ. FmtN encodes the opcode alone.
type Word uint32

// Format describes how an opcode's operands are encoded.
type Format uint8

const (
	FmtR Format = iota // rd, rs, rt
	FmtI               // rd, rs, imm16
	FmtB               // rs, rt, imm16 (branches: no destination)
	FmtJ               // rd, imm16 (jal) / imm16 (jmp)
	FmtN               // no operands (nop, halt)
)

// FormatOf returns the encoding format for op.
func FormatOf(op Op) Format { return info(op).Format }

// ClassOf returns the coarse class of an instruction (class can depend on
// operands: `jr ra` is a return, `jr rX` an indirect jump).
func ClassOf(i Inst) Class {
	if i.Op == OpJr && i.Rs == RRA {
		return ClassReturn
	}
	return info(i.Op).Class
}

// HasDest reports whether the instruction writes a register (writes to RZero
// do not count: they are architectural no-ops and the renamer must not
// allocate for them).
func HasDest(i Inst) bool { return info(i.Op).dest && i.Rd != RZero }

// IsMove reports whether i is the register-move idiom: an addi with a zero
// immediate (or an ori with zero). This is what RENO.ME eliminates.
func IsMove(i Inst) bool {
	return (i.Op == OpAddi || i.Op == OpOri) && i.Imm == 0 &&
		i.Rd != RZero && i.Rs != RZero
}

// IsRegImmAdd reports whether i is a register-immediate addition (including
// subtraction, which is an addition of a negated immediate, and including
// moves). This is the class of instruction RENO.CF folds.
func IsRegImmAdd(i Inst) bool {
	return (i.Op == OpAddi || i.Op == OpSubi) && i.Rd != RZero && i.Rs != RZero
}

// FoldedDisp returns the displacement a folded register-immediate addition
// contributes: +Imm for addi, -Imm for subi.
func FoldedDisp(i Inst) int32 {
	if i.Op == OpSubi {
		return -i.Imm
	}
	return i.Imm
}

// IsRegImmAddZeroSrc reports whether i is an immediate load expressed as a
// register-immediate addition from the zero register (addi rd, zero, imm).
// The optional FoldZeroSource extension folds these to [p0:imm].
func IsRegImmAddZeroSrc(i Inst) bool {
	return (i.Op == OpAddi || i.Op == OpSubi) && i.Rd != RZero && i.Rs == RZero
}

// IsCFCandidate reports whether RENO.CF may fold i: register-immediate
// additions whose source is a real register. Moves are included (RENO.CF
// subsumes RENO.ME: it does not distinguish zero from non-zero immediates).
func IsCFCandidate(i Inst) bool {
	return IsRegImmAdd(i) || IsMove(i)
}

// NumSources returns how many register sources the instruction actually
// reads (RZero sources still count as a port read architecturally, but the
// renamer may want to know the format).
func NumSources(i Inst) int { return int(info(i.Op).srcs) }

// Sources returns the registers the instruction reads. Slots beyond
// NumSources are RZero.
func Sources(i Inst) (rs, rt Reg) {
	switch info(i.Op).srcs {
	case 0:
		return RZero, RZero
	case 1:
		return i.Rs, RZero
	default:
		return i.Rs, i.Rt
	}
}

// Target returns the destination of the PC-relative control transfer i at
// word address pc: the next instruction plus Imm words.
func Target(pc uint64, i Inst) uint64 { return uint64(int64(pc) + 1 + int64(i.Imm)) }

// Encode packs an instruction into a 32-bit word.
func Encode(i Inst) Word {
	w := Word(i.Op) << 26
	switch FormatOf(i.Op) {
	case FmtN:
		// opcode only
	case FmtI:
		w |= Word(i.Rd&31) << 21
		w |= Word(i.Rs&31) << 16
		w |= Word(uint16(i.Imm))
	case FmtB:
		w |= Word(i.Rs&31) << 21
		w |= Word(i.Rt&31) << 16
		w |= Word(uint16(i.Imm))
	case FmtJ:
		w |= Word(i.Rd&31) << 21
		w |= Word(uint16(i.Imm))
	case FmtR:
		w |= Word(i.Rd&31) << 21
		w |= Word(i.Rs&31) << 16
		w |= Word(i.Rt&31) << 11
	}
	return w
}

// Decode unpacks a 32-bit word into an instruction. Decoding never fails:
// undefined opcodes decode as OpNop, mirroring a machine that treats them as
// no-ops after raising a fault we don't model.
func Decode(w Word) Inst {
	op := Op(w >> 26)
	if int(op) >= NumOps {
		return Inst{Op: OpNop, Rd: RZero, Rs: RZero, Rt: RZero}
	}
	i := Inst{Op: op, Rd: RZero, Rs: RZero, Rt: RZero}
	switch FormatOf(op) {
	case FmtN:
	case FmtI:
		i.Rd = Reg(w >> 21 & 31)
		i.Rs = Reg(w >> 16 & 31)
		i.Imm = int32(int16(w & 0xffff))
	case FmtB:
		i.Rs = Reg(w >> 21 & 31)
		i.Rt = Reg(w >> 16 & 31)
		i.Imm = int32(int16(w & 0xffff))
	case FmtJ:
		i.Rd = Reg(w >> 21 & 31)
		i.Imm = int32(int16(w & 0xffff))
	case FmtR:
		i.Rd = Reg(w >> 21 & 31)
		i.Rs = Reg(w >> 16 & 31)
		i.Rt = Reg(w >> 11 & 31)
	}
	return i
}

// Canon returns i with unused operand fields normalized to the values Decode
// would produce, so that Canon(i) == Decode(Encode(i)) for any well-formed i.
func Canon(i Inst) Inst {
	return Decode(Encode(i))
}

// String disassembles the instruction, printing a PC-relative target as
// its word offset.
func (i Inst) String() string { return i.Text("") }

// Nop is the canonical no-op instruction.
var Nop = Inst{Op: OpNop, Rd: RZero, Rs: RZero, Rt: RZero}

// Halt is the canonical halt instruction.
var Halt = Inst{Op: OpHalt, Rd: RZero, Rs: RZero, Rt: RZero}

// Move builds the register-move idiom rd <- rs.
func Move(rd, rs Reg) Inst { return Inst{Op: OpAddi, Rd: rd, Rs: rs, Rt: RZero, Imm: 0} }

// Addi builds rd <- rs + imm.
func Addi(rd, rs Reg, imm int32) Inst { return Inst{Op: OpAddi, Rd: rd, Rs: rs, Rt: RZero, Imm: imm} }

// Ld builds rd <- MEM[rs+disp].
func Ld(rd, rs Reg, disp int32) Inst { return Inst{Op: OpLd, Rd: rd, Rs: rs, Rt: RZero, Imm: disp} }

// St builds MEM[rs+disp] <- rt.
func St(rt, rs Reg, disp int32) Inst { return Inst{Op: OpSt, Rd: RZero, Rs: rs, Rt: rt, Imm: disp} }

// R builds a register-register instruction rd <- rs op rt.
func R(op Op, rd, rs, rt Reg) Inst { return Inst{Op: op, Rd: rd, Rs: rs, Rt: rt} }

// I builds a register-immediate instruction rd <- rs op imm.
func I(op Op, rd, rs Reg, imm int32) Inst { return Inst{Op: op, Rd: rd, Rs: rs, Rt: RZero, Imm: imm} }

// Branch builds a conditional branch comparing rs and rt with word offset.
func Branch(op Op, rs, rt Reg, off int32) Inst {
	return Inst{Op: op, Rd: RZero, Rs: rs, Rt: rt, Imm: off}
}
