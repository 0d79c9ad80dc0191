package asm

import (
	"regexp"
	"strings"
	"testing"

	"reno/internal/isa"
)

// fuzzSeeds returns representative valid programs covering every syntactic
// form — including a workload-generator-shaped kernel — so the fuzzer
// mutates from deep inside the accepted language. (The real generator lives
// in internal/workload, which imports this package and so can't seed it.)
func fuzzSeeds() []string {
	seeds := []string{
		"",
		"start:\n\tnop\n\thalt\n",
		"\tli r1, 10\nloop:\n\tsubi r1, r1, 1\n\tbne r1, zero, loop\n\thalt\n",
		"\tmove r7, r8\n\tld r1, 4(r2)\n\tst r1, -4(r2)\n\thalt\n",
		"\tlui r1, 0x7f\n\tori r1, r1, 0xff\n\tli r2, 0x12345678\n\thalt\n",
		"\tadd r1, r2, r3\n\tmul r4, r5, r6\n\tfadd r7, r8, r9\n\thalt\n",
		"\tslli r1, r2, 3\n\tsrai r3, r4, 2\n\tandi r5, r6, 0x7fff\n\thalt\n",
		"main:\n\tcall fn\n\thalt\nfn:\n\tjr ra\n",
		"\tjalr r26, r5\n\tjmp end\n\tnop\nend:\n\thalt\n",
		"a:\n\tbeq r1, r2, b\nb:\n\tblt r3, r4, a\n\tbge r4, r3, b\n\thalt\n",
		"# comment\n\tnop ; trailing\n\thalt\n",
		// A call-tree kernel in the shape the workload generator emits:
		// frames, spills, loop decrements, and call/ret pairs.
		`start:
	li r10, 4
	li r12, 65536
outer:
	call kern_0_calls
	subi r10, r10, 1
	bne r10, zero, outer
	halt
kern_0_calls:
	subi sp, sp, 2
	st ra, 0(sp)
	li r1, 3
calls_1:
	move r16, r1
	call kt_0_lvl0
	subi r1, r1, 1
	bne r1, zero, calls_1
	ld ra, 0(sp)
	addi sp, sp, 2
	ret
kt_0_lvl0:
	subi sp, sp, 9
	st ra, 0(sp)
	st r20, 1(sp)
	addi r20, r16, 1
	add r2, r16, r16
	move r0, r2
	ld r20, 1(sp)
	ld ra, 0(sp)
	addi sp, sp, 9
	ret
`,
	}
	return seeds
}

var synthLabel = regexp.MustCompile(`(?m)^\s*L\d+\s*:`)

// FuzzAssembleRoundTrip fuzzes the full asm+isa path: assembly never
// panics; every instruction the assembler emits must survive the isa
// encode/decode round trip bit-exactly; and for programs whose control
// transfers all land inside the image or just past its end, Disassemble
// must produce source that reassembles to the identical code.
func FuzzAssembleRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}

		// Every emitted instruction must be canonical under the isa codec:
		// the binary image is the interchange format, so an instruction the
		// assembler builds but the codec can't reproduce is corruption.
		targetsInImage := true
		for pc, in := range p.Code {
			if got := isa.Decode(isa.Encode(in)); got != in {
				t.Fatalf("inst %d (%v) not codec-canonical: decode(encode) = %v", pc, in, got)
			}
			if !isa.HasTarget(in.Op) {
				continue
			}
			// A target just past the last instruction is in the image: the
			// disassembler labels it.
			if tgt := int(isa.Target(uint64(pc), in)); tgt < 0 || tgt > len(p.Code) {
				targetsInImage = false
			}
		}

		// Labels matching the disassembler's synthesized L<n> names can
		// collide with fresh ones; restrict the strict oracle to inputs
		// that stay out of that namespace.
		if !targetsInImage || synthLabel.MatchString(src) {
			return
		}
		src2 := Disassemble(p)
		p2, err := Assemble(src2)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n-- original --\n%s\n-- disassembly --\n%s", err, src, src2)
		}
		if len(p2.Code) != len(p.Code) {
			t.Fatalf("round trip changed length %d -> %d", len(p.Code), len(p2.Code))
		}
		for pc := range p.Code {
			if isa.Encode(p.Code[pc]) != isa.Encode(p2.Code[pc]) {
				t.Fatalf("round trip changed inst %d: %v -> %v", pc, p.Code[pc], p2.Code[pc])
			}
		}
	})
}

// FuzzAssembleNoPanicOnNoise complements the round-trip fuzz with byte-level
// noise (line splices of printable and non-printable junk) to harden the
// lexer paths.
func FuzzAssembleNoPanicOnNoise(f *testing.F) {
	f.Add("ld r1, (r2)")
	f.Add("st ,,,,")
	f.Add("li r1, 99999999999999999999")
	f.Add("add r99, r1, r2")
	f.Add("bne r1, zero, \x00")
	f.Add(strings.Repeat("a:", 100))
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err == nil && p == nil {
			t.Fatal("nil program without error")
		}
		if err != nil {
			if !strings.Contains(err.Error(), "asm: line") {
				t.Fatalf("error without line context: %v", err)
			}
		}
	})
}
