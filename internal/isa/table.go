package isa

import (
	"slices"
	"strconv"
	"strings"
)

// Ext says how an opcode widens its 16-bit immediate field.
type Ext uint8

const (
	ExtNone Ext = iota // no immediate operand
	ExtSign            // sign-extended: -32768..32767
	ExtZero            // zero-extended: 0..65535
)

// Operand is one operand slot of an opcode's assembly syntax.
type Operand uint8

const (
	OpndRd    Operand = iota // "rd": destination register
	OpndRs                   // "rs": first source register
	OpndRt                   // "rt": second source register
	OpndImm                  // "imm": immediate
	OpndMem                  // "imm(rs)": displacement and base register
	OpndLabel                // "label": PC-relative target (see Target)
)

var operandSyntax = [...]string{
	OpndRd: "rd", OpndRs: "rs", OpndRt: "rt", OpndImm: "imm", OpndMem: "imm(rs)", OpndLabel: "label",
}

// OpInfo is one row of the opcode table: what the assembler, the
// disassembler and the ISA queries know about an opcode.
type OpInfo struct {
	Name   string
	Format Format
	Class  Class // ClassOf's answer, except that `jr ra` is a return
	Ext    Ext

	Operands []Operand // operand syntax, one slot per operand
	dest     bool      // the syntax names rd
	srcs     uint8     // register sources read: NumSources
}

// opTable is the opcode table. Its last row describes every undefined
// opcode, so the queries are total.
var opTable = [NumOps + 1]OpInfo{
	OpNop:  def("nop", FmtN, ClassNop, ExtNone, ""),
	OpAddi: def("addi", FmtI, ClassIntALU, ExtSign, "rd, rs, imm"),
	OpSubi: def("subi", FmtI, ClassIntALU, ExtSign, "rd, rs, imm"),
	OpAndi: def("andi", FmtI, ClassIntALU, ExtZero, "rd, rs, imm"),
	OpOri:  def("ori", FmtI, ClassIntALU, ExtZero, "rd, rs, imm"),
	OpXori: def("xori", FmtI, ClassIntALU, ExtZero, "rd, rs, imm"),
	OpSlli: def("slli", FmtI, ClassIntALU, ExtSign, "rd, rs, imm"),
	OpSrli: def("srli", FmtI, ClassIntALU, ExtSign, "rd, rs, imm"),
	OpSrai: def("srai", FmtI, ClassIntALU, ExtSign, "rd, rs, imm"),
	OpLui:  def("lui", FmtI, ClassIntALU, ExtZero, "rd, imm"),
	OpAdd:  def("add", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpSub:  def("sub", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpAnd:  def("and", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpOr:   def("or", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpXor:  def("xor", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpSll:  def("sll", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpSrl:  def("srl", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpSra:  def("sra", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpSlt:  def("slt", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpSltu: def("sltu", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
	OpMul:  def("mul", FmtR, ClassIntMul, ExtNone, "rd, rs, rt"),
	OpDiv:  def("div", FmtR, ClassIntMul, ExtNone, "rd, rs, rt"),
	OpFAdd: def("fadd", FmtR, ClassFP, ExtNone, "rd, rs, rt"),
	OpFMul: def("fmul", FmtR, ClassFP, ExtNone, "rd, rs, rt"),
	OpLd:   def("ld", FmtI, ClassLoad, ExtSign, "rd, imm(rs)"),
	OpSt:   def("st", FmtB, ClassStore, ExtSign, "rt, imm(rs)"),
	OpBeq:  def("beq", FmtB, ClassBranch, ExtSign, "rs, rt, label"),
	OpBne:  def("bne", FmtB, ClassBranch, ExtSign, "rs, rt, label"),
	OpBlt:  def("blt", FmtB, ClassBranch, ExtSign, "rs, rt, label"),
	OpBge:  def("bge", FmtB, ClassBranch, ExtSign, "rs, rt, label"),
	OpJmp:  def("jmp", FmtJ, ClassBranch, ExtSign, "label"),
	OpJal:  def("jal", FmtJ, ClassCall, ExtSign, "rd, label"),
	OpJr:   def("jr", FmtR, ClassBranch, ExtNone, "rs"),
	OpJalr: def("jalr", FmtR, ClassCall, ExtNone, "rd, rs"),
	OpHalt: def("halt", FmtN, ClassHalt, ExtNone, ""),
	numOps: def("", FmtR, ClassIntALU, ExtNone, "rd, rs, rt"),
}

// def builds a table row, splitting its operand syntax (for example
// "rd, imm(rs)") into operand slots.
func def(name string, f Format, c Class, e Ext, syntax string) OpInfo {
	r := OpInfo{Name: name, Format: f, Class: c, Ext: e}
	for _, s := range strings.Split(syntax, ", ") {
		if s == "" {
			continue
		}
		k := slices.Index(operandSyntax[:], s)
		if k < 0 {
			panic("isa: bad operand " + strconv.Quote(s) + " in syntax of " + name)
		}
		o := Operand(k)
		r.Operands = append(r.Operands, o)
		r.dest = r.dest || o == OpndRd
		if o == OpndRs || o == OpndRt || o == OpndMem {
			r.srcs++
		}
	}
	if f == FmtI {
		// An I-format instruction reads its rs field even where the
		// syntax fixes it to zero (lui).
		r.srcs = 1
	}
	return r
}

// info returns op's row of the opcode table.
func info(op Op) *OpInfo {
	if int(op) < NumOps {
		return &opTable[op]
	}
	return &opTable[numOps]
}

// Info returns op's row of the opcode table. An undefined opcode gets the
// row of a nameless register-register ALU operation.
func (o Op) Info() OpInfo { return *info(o) }

// HasTarget reports whether op has a PC-relative label operand.
func HasTarget(op Op) bool { return slices.Contains(info(op).Operands, OpndLabel) }

// Text disassembles the instruction. A PC-relative target prints as label
// when label is non-empty and as its word offset otherwise.
func (i Inst) Text(label string) string {
	if i.Op == OpAddi && IsMove(i) {
		// Only the addi form is the assembler's move pseudo-op; an
		// ori-encoded move must disassemble as ori so that reassembly
		// preserves the binary image.
		return "move " + i.Rd.String() + ", " + i.Rs.String()
	}
	r := info(i.Op)
	b := []byte(i.Op.String())
	for k, o := range r.Operands {
		if k == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch o {
		case OpndRd:
			b = append(b, i.Rd.String()...)
		case OpndRs:
			b = append(b, i.Rs.String()...)
		case OpndRt:
			b = append(b, i.Rt.String()...)
		case OpndImm:
			b = r.Ext.appendImm(b, i.Imm)
		case OpndMem:
			b = append(r.Ext.appendImm(b, i.Imm), '(')
			b = append(append(b, i.Rs.String()...), ')')
		case OpndLabel:
			if label == "" {
				b = strconv.AppendInt(b, int64(i.Imm), 10)
			} else {
				b = append(b, label...)
			}
		}
	}
	return string(b)
}

// appendImm appends imm as the assembler writes it: unsigned for a
// zero-extended immediate, so that the text reassembles.
func (e Ext) appendImm(b []byte, imm int32) []byte {
	if e == ExtZero {
		return strconv.AppendUint(b, uint64(uint16(imm)), 10)
	}
	return strconv.AppendInt(b, int64(imm), 10)
}
