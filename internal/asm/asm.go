// Package asm implements a two-pass assembler for the AXP32 ISA.
//
// Syntax (one instruction or directive per line; `#` and `;` start comments):
//
//	label:
//	    addi r2, r3, 4
//	    move r4, r2          # pseudo: addi r4, r2, 0
//	    ld   r5, 8(r2)
//	    st   r5, -16(sp)
//	    beq  r5, zero, label # branch targets are labels
//	    jal  ra, func
//	    jr   ra
//	    li   r6, 123456      # pseudo: lui+ori or addi as needed
//	    halt
//
// Each opcode's operand syntax is its row of the isa opcode table; only the
// pseudo-instructions move, li, ret and call have their own code.
//
// Registers are r0..r31 with aliases sp (r30), zero (r31), ra (r26),
// gp (r29). Immediates are decimal or 0x-hex and must fit the opcode's
// 16-bit field as the hardware widens it: -32768..32767 for sign-extended
// immediates and displacements, 0..65535 for the zero-extended immediates
// of andi, ori, xori and lui. The disassembler prints the latter unsigned.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"reno/internal/isa"
)

// Program is an assembled AXP32 program: a flat code image starting at word
// address 0, plus symbol information.
type Program struct {
	Code    []isa.Inst
	Symbols map[string]int // label -> word address
}

// Error describes an assembly failure with line context.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type patch struct {
	addr  int    // instruction index needing the patch
	label string // target label
	line  int
}

// Assemble parses and assembles AXP32 assembly text.
func Assemble(src string) (*Program, error) {
	p := &Program{Symbols: map[string]int{}}
	var patches []patch

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by an instruction on the same line.
		for {
			ci := strings.Index(line, ":")
			if ci < 0 {
				break
			}
			label := strings.TrimSpace(line[:ci])
			if !validLabel(label) {
				return nil, &Error{ln + 1, fmt.Sprintf("invalid label %q", label)}
			}
			if _, dup := p.Symbols[label]; dup {
				return nil, &Error{ln + 1, fmt.Sprintf("duplicate label %q", label)}
			}
			p.Symbols[label] = len(p.Code)
			line = strings.TrimSpace(line[ci+1:])
		}
		if line == "" {
			continue
		}
		insts, ps, err := parseInst(line, len(p.Code), ln+1)
		if err != nil {
			return nil, err
		}
		patches = append(patches, ps...)
		p.Code = append(p.Code, insts...)
	}

	for _, pt := range patches {
		target, ok := p.Symbols[pt.label]
		if !ok {
			return nil, &Error{pt.line, fmt.Sprintf("undefined label %q", pt.label)}
		}
		// The instruction still has Imm 0, so isa.Target gives the address
		// its offset counts from.
		in := &p.Code[pt.addr]
		off := target - int(isa.Target(uint64(pt.addr), *in))
		if off < -32768 || off > 32767 {
			return nil, &Error{pt.line, fmt.Sprintf("branch to %q out of range (%d words)", pt.label, off)}
		}
		in.Imm = int32(off)
	}
	return p, nil
}

// MustAssemble is Assemble that panics on error; for tests and examples with
// literal source text.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var regAliases = map[string]isa.Reg{
	"sp": isa.RSP, "zero": isa.RZero, "ra": isa.RRA, "gp": isa.RGP,
	"v0": isa.RV0, "a0": isa.RA0, "a1": isa.RA0 + 1, "a2": isa.RA0 + 2, "a3": isa.RA0 + 3,
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if r, ok := regAliases[s]; ok {
		return r, nil
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumLogicalRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// parseImm parses a 16-bit immediate widened as ext says.
func parseImm(s string, ext isa.Ext) (int32, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseInt(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	lo, hi := int64(-32768), int64(32767)
	if ext == isa.ExtZero {
		lo, hi = 0, 65535
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("immediate %d out of 16-bit range %d..%d", v, lo, hi)
	}
	return int32(int16(v)), nil
}

// parseMem parses "disp(reg)" memory-operand syntax.
func parseMem(s string, ext isa.Ext) (isa.Reg, int32, error) {
	s = strings.TrimSpace(s)
	lp := strings.Index(s, "(")
	rp := strings.LastIndex(s, ")")
	if lp < 0 || rp < lp {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	disp := int32(0)
	if d := strings.TrimSpace(s[:lp]); d != "" {
		v, err := parseImm(d, ext)
		if err != nil {
			return 0, 0, err
		}
		disp = v
	}
	base, err := parseReg(s[lp+1 : rp])
	if err != nil {
		return 0, 0, err
	}
	return base, disp, nil
}

var opsByName = map[string]isa.Op{}

func init() {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		opsByName[op.String()] = op
	}
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInst(line string, addr, ln int) ([]isa.Inst, []patch, error) {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], line[i+1:]
	}
	mnemonic = strings.ToLower(mnemonic)
	ops := splitOperands(rest)

	fail := func(format string, args ...any) ([]isa.Inst, []patch, error) {
		return nil, nil, &Error{ln, fmt.Sprintf(format, args...)}
	}
	needOps := func(n int) error {
		if len(ops) != n {
			return &Error{ln, fmt.Sprintf("%s needs %d operands, got %d", mnemonic, n, len(ops))}
		}
		return nil
	}

	// Pseudo-instructions: li expands to one or two instructions, the
	// others rewrite to one real instruction with a fixed operand.
	switch mnemonic {
	case "move", "mov":
		if err := needOps(2); err != nil {
			return nil, nil, err
		}
		mnemonic, ops = "addi", append(ops, "0")
	case "ret":
		if err := needOps(0); err != nil {
			return nil, nil, err
		}
		mnemonic, ops = "jr", []string{"ra"}
	case "call":
		if err := needOps(1); err != nil {
			return nil, nil, err
		}
		mnemonic, ops = "jal", []string{"ra", ops[0]}
	case "li":
		if err := needOps(2); err != nil {
			return nil, nil, err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return fail("%v", err)
		}
		v, err := strconv.ParseInt(ops[1], 0, 64)
		if err != nil {
			return fail("bad immediate %q", ops[1])
		}
		if v >= -32768 && v <= 32767 {
			return []isa.Inst{isa.Addi(rd, isa.RZero, int32(v))}, nil, nil
		}
		if v < 0 || v > 0xffffffff {
			return fail("li immediate %d out of 32-bit range", v)
		}
		hi := int32(v >> 16 & 0xffff)
		lo := int32(v & 0xffff)
		out := []isa.Inst{isa.I(isa.OpLui, rd, isa.RZero, int32(int16(hi)))}
		if lo != 0 {
			out = append(out, isa.I(isa.OpOri, rd, rd, int32(int16(lo))))
		}
		return out, nil, nil
	}

	op, ok := opsByName[mnemonic]
	if !ok {
		return fail("unknown mnemonic %q", mnemonic)
	}

	info := op.Info()
	if err := needOps(len(info.Operands)); err != nil {
		return nil, nil, err
	}
	in := isa.Inst{Op: op, Rd: isa.RZero, Rs: isa.RZero, Rt: isa.RZero}
	var ps []patch
	for k, o := range info.Operands {
		var err error
		switch o {
		case isa.OpndRd:
			in.Rd, err = parseReg(ops[k])
		case isa.OpndRs:
			in.Rs, err = parseReg(ops[k])
		case isa.OpndRt:
			in.Rt, err = parseReg(ops[k])
		case isa.OpndImm:
			in.Imm, err = parseImm(ops[k], info.Ext)
		case isa.OpndMem:
			in.Rs, in.Imm, err = parseMem(ops[k], info.Ext)
		case isa.OpndLabel:
			ps = []patch{{addr: addr, label: ops[k], line: ln}}
		}
		if err != nil {
			return fail("%v", err)
		}
	}
	return []isa.Inst{in}, ps, nil
}

// Disassemble renders a program as assembly text with synthesized labels at
// branch targets, including a target just past the last instruction.
func Disassemble(p *Program) string {
	targets := map[int]string{}
	for name, addr := range p.Symbols {
		targets[addr] = name
	}
	next := 0
	for pc, in := range p.Code {
		if !isa.HasTarget(in.Op) {
			continue
		}
		t := int(isa.Target(uint64(pc), in))
		if _, ok := targets[t]; !ok && t >= 0 && t <= len(p.Code) {
			targets[t] = fmt.Sprintf("L%d", next)
			next++
		}
	}
	var b strings.Builder
	for pc := 0; pc <= len(p.Code); pc++ {
		if name, ok := targets[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		if pc == len(p.Code) {
			break
		}
		in := p.Code[pc]
		label := ""
		if isa.HasTarget(in.Op) {
			label = targets[int(isa.Target(uint64(pc), in))]
		}
		fmt.Fprintf(&b, "\t%s\n", in.Text(label))
	}
	return b.String()
}
