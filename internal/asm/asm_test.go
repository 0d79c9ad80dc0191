package asm

import (
	"errors"
	"strings"
	"testing"

	"reno/internal/isa"
)

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		# simple straight-line code
		addi r1, zero, 10
		move r2, r1
		ld   r3, 8(r2)
		st   r3, -16(sp)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Inst{
		isa.Addi(1, isa.RZero, 10),
		isa.Move(2, 1),
		isa.Ld(3, 2, 8),
		isa.St(3, isa.RSP, -16),
		isa.Halt,
	}
	if len(p.Code) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(p.Code), len(want))
	}
	for i := range want {
		if p.Code[i] != isa.Canon(want[i]) {
			t.Errorf("inst %d: got %v want %v", i, p.Code[i], want[i])
		}
	}
}

func TestAssembleBranchesAndLabels(t *testing.T) {
	p, err := Assemble(`
		addi r1, zero, 5
	loop:
		subi r1, r1, 1
		bne  r1, zero, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	br := p.Code[2]
	if br.Op != isa.OpBne {
		t.Fatalf("expected bne, got %v", br)
	}
	// Target is word 1; branch at word 2; offset relative to word 3 = -2.
	if br.Imm != -2 {
		t.Errorf("branch offset = %d, want -2", br.Imm)
	}
	if p.Symbols["loop"] != 1 {
		t.Errorf("label loop = %d, want 1", p.Symbols["loop"])
	}
}

func TestAssembleForwardReference(t *testing.T) {
	p, err := Assemble(`
		beq r1, r2, done
		addi r1, r1, 1
	done:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 1 {
		t.Errorf("forward branch offset = %d, want 1", p.Code[0].Imm)
	}
}

func TestAssembleCallRet(t *testing.T) {
	p, err := Assemble(`
		call fn
		halt
	fn:
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Op != isa.OpJal || p.Code[0].Rd != isa.RRA || p.Code[0].Imm != 1 {
		t.Errorf("call encoded as %v", p.Code[0])
	}
	if p.Code[2].Op != isa.OpJr || p.Code[2].Rs != isa.RRA {
		t.Errorf("ret encoded as %v", p.Code[2])
	}
}

func TestAssembleLi(t *testing.T) {
	p, err := Assemble(`
		li r1, 42
		li r2, -7
		li r3, 0x12345678
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Op != isa.OpAddi || p.Code[0].Imm != 42 {
		t.Errorf("li small: %v", p.Code[0])
	}
	if p.Code[1].Imm != -7 {
		t.Errorf("li negative: %v", p.Code[1])
	}
	if p.Code[2].Op != isa.OpLui || p.Code[3].Op != isa.OpOri {
		t.Errorf("li large: %v %v", p.Code[2], p.Code[3])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
		line int
	}{
		{"bogus r1, r2, r3", "unknown mnemonic", 1},
		{"addi r1, r2", "needs 3 operands", 1},
		{"addi r99, r2, 3", "bad register", 1},
		{"addi r1, r2, 99999", "out of 16-bit range", 1},
		{"beq r1, r2, nowhere", "undefined label", 1},
		{"x: \n x: halt", "duplicate label", 2},
		{"9bad: halt", "invalid label", 1},
		{"ld r1, r2", "bad memory operand", 1},
		// Sign-extended immediates and displacements stop at 32767; a
		// zero-extended immediate cannot be negative.
		{"nop\naddi r1, zero, 40000", "out of 16-bit range -32768..32767", 2},
		{"nop\nnop\nld r1, 40000(r2)", "out of 16-bit range -32768..32767", 3},
		{"subi r1, r1, 65535", "out of 16-bit range -32768..32767", 1},
		{"nop\nori r1, r1, -1", "out of 16-bit range 0..65535", 2},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("source %q assembled without error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("source %q: error %q does not contain %q", c.src, err, c.frag)
		}
		var ae *Error
		if !errors.As(err, &ae) || ae.Line != c.line {
			t.Errorf("source %q: error %q not on line %d", c.src, err, c.line)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	// The zero-extended immediate must print unsigned to reassemble, and
	// the branch to the end of the image needs a label past the last
	// instruction.
	src := `
	start:
		addi r1, zero, 3
		ori r2, r2, 0xffff
	loop:
		subi r1, r1, 1
		addi r4, r4, 8
		bne  r1, zero, loop
		jal  ra, fn
		halt
	fn:
		beq r1, r2, end
		jr ra
	end:
	`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Once with the program's own labels, once with synthesized ones.
	for _, p := range []*Program{p1, {Code: p1.Code}} {
		text := Disassemble(p)
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("reassembling disassembly failed: %v\n%s", err, text)
		}
		if len(p1.Code) != len(p2.Code) {
			t.Fatalf("length mismatch: %d vs %d", len(p1.Code), len(p2.Code))
		}
		for i := range p1.Code {
			if p1.Code[i] != p2.Code[i] {
				t.Errorf("inst %d: %v vs %v", i, p1.Code[i], p2.Code[i])
			}
		}
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble("entry: addi r1, zero, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["entry"] != 0 || len(p.Code) != 2 {
		t.Errorf("entry=%d len=%d", p.Symbols["entry"], len(p.Code))
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad input")
		}
	}()
	MustAssemble("not an instruction at all")
}
