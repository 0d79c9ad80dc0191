package isa

import "testing"

// FuzzDecodeEncodeRoundTrip checks the codec's fixed-point property over the
// full 32-bit word space: decoding any word yields an instruction whose
// re-encoding decodes to the same instruction (decode∘encode is the identity
// on decode's image), and Canon is idempotent.
func FuzzDecodeEncodeRoundTrip(f *testing.F) {
	seeds := []uint32{
		0, 0xffffffff,
		uint32(Encode(Move(1, 2))),
		uint32(Encode(Addi(3, 4, -32768))),
		uint32(Encode(Ld(5, 6, 32767))),
		uint32(Encode(St(7, 8, -1))),
		uint32(Encode(Branch(OpBne, 9, 10, -4))),
		uint32(Encode(R(OpMul, 11, 12, 13))),
		uint32(Encode(Halt)),
		uint32(63) << 26, // undefined opcode space
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, w uint32) {
		i := Decode(Word(w))
		if int(i.Op) >= NumOps {
			t.Fatalf("Decode(%#x) produced out-of-range opcode %d", w, i.Op)
		}
		j := Decode(Encode(i))
		if i != j {
			t.Fatalf("round trip broke %#x: %+v -> %+v", w, i, j)
		}
		if k := Canon(j); k != j {
			t.Fatalf("Canon not idempotent on %#x: %+v -> %+v", w, j, k)
		}
		// Re-encoding a canonical instruction must be stable bit-for-bit.
		if e1, e2 := Encode(i), Encode(j); e1 != e2 {
			t.Fatalf("encode unstable for %#x: %#x vs %#x", w, e1, e2)
		}
	})
}

// FuzzCanonFromFields drives the codec from the instruction-field side:
// for arbitrary field values, Canon must be reachable in one
// encode/decode step and the table accessors and classification helpers
// must not panic.
func FuzzCanonFromFields(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), uint8(3), int32(0))
	f.Add(uint8(7), uint8(31), uint8(0), uint8(31), int32(-1))
	f.Add(uint8(255), uint8(64), uint8(64), uint8(64), int32(1<<30))
	f.Fuzz(func(t *testing.T, op, rd, rs, rt uint8, imm int32) {
		in := Inst{Op: Op(op), Rd: Reg(rd), Rs: Reg(rs), Rt: Reg(rt), Imm: imm}
		c := Canon(in)
		if c != Canon(c) {
			t.Fatalf("Canon unstable: %+v -> %+v -> %+v", in, c, Canon(c))
		}
		// Exercise the table accessors and classifiers on the raw and the
		// canonical form; they must be total, even on undefined opcodes.
		for _, i := range []Inst{in, c} {
			_ = FormatOf(i.Op)
			_ = i.Op.Info()
			_ = HasTarget(i.Op)
			_ = ClassOf(i).String()
			_ = HasDest(i)
			_ = IsMove(i)
			_ = IsRegImmAdd(i)
			_ = NumSources(i)
			_, _ = Sources(i)
			_ = i.String()
		}
	})
}
