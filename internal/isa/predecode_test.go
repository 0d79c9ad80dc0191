package isa

import "testing"

// checkPredecode fails t unless every answer of Predecode(i) equals the
// ISA query it stands for.
func checkPredecode(t *testing.T, i Inst) {
	t.Helper()
	f := Predecode(i)
	rs, rt := Sources(i)
	frs, frt := f.Sources()
	switch {
	case !f.Decoded():
		t.Fatalf("%+v: Decoded false", i)
	case frs != rs || frt != rt:
		t.Fatalf("%+v: Sources %v,%v, want %v,%v", i, frs, frt, rs, rt)
	case f.NumSources() != NumSources(i):
		t.Fatalf("%+v: NumSources %d, want %d", i, f.NumSources(), NumSources(i))
	case f.Class() != ClassOf(i):
		t.Fatalf("%+v: Class %v, want %v", i, f.Class(), ClassOf(i))
	case f.HasDest() != HasDest(i):
		t.Fatalf("%+v: HasDest %v, want %v", i, f.HasDest(), HasDest(i))
	case f.IsMove() != IsMove(i):
		t.Fatalf("%+v: IsMove %v, want %v", i, f.IsMove(), IsMove(i))
	case f.IsRegImmAdd() != IsRegImmAdd(i):
		t.Fatalf("%+v: IsRegImmAdd %v, want %v", i, f.IsRegImmAdd(), IsRegImmAdd(i))
	case f.IsCFCandidate() != IsCFCandidate(i):
		t.Fatalf("%+v: IsCFCandidate %v, want %v", i, f.IsCFCandidate(), IsCFCandidate(i))
	case f.IsRegImmAddZeroSrc() != IsRegImmAddZeroSrc(i):
		t.Fatalf("%+v: IsRegImmAddZeroSrc %v, want %v", i, f.IsRegImmAddZeroSrc(), IsRegImmAddZeroSrc(i))
	case f.FoldedDisp(i.Imm) != FoldedDisp(i):
		t.Fatalf("%+v: FoldedDisp %d, want %d", i, f.FoldedDisp(i.Imm), FoldedDisp(i))
	}
}

// TestPredecodeMatchesQueries is Predecode's oracle: on every opcode value,
// undefined ones included, and on operands that hit the queries' special
// cases (the zero register, `jr ra`, a zero or negative immediate), each
// answer equals the query it replaces.
func TestPredecodeMatchesQueries(t *testing.T) {
	regs := []Reg{RZero, RRA, RSP, 5}
	for op := 0; op < 256; op++ {
		for _, rd := range regs {
			for _, rs := range regs {
				for _, rt := range regs {
					for _, imm := range []int32{0, -1, 7} {
						checkPredecode(t, Inst{Op: Op(op), Rd: rd, Rs: rs, Rt: rt, Imm: imm})
					}
				}
			}
		}
	}
}

// FuzzPredecode checks Predecode against the queries on arbitrary
// instructions, register fields beyond the architectural 32 included.
func FuzzPredecode(f *testing.F) {
	f.Add(uint8(OpAddi), uint8(3), uint8(5), uint8(RZero), int32(0))
	f.Add(uint8(OpSubi), uint8(RSP), uint8(RSP), uint8(RZero), int32(16))
	f.Add(uint8(OpOri), uint8(3), uint8(RZero), uint8(RZero), int32(0))
	f.Add(uint8(OpJr), uint8(RZero), uint8(RRA), uint8(RZero), int32(0))
	f.Add(uint8(OpSt), uint8(RZero), uint8(5), uint8(7), int32(-8))
	f.Add(uint8(255), uint8(255), uint8(255), uint8(255), int32(-1<<31))
	f.Fuzz(func(t *testing.T, op, rd, rs, rt uint8, imm int32) {
		checkPredecode(t, Inst{Op: Op(op), Rd: Reg(rd), Rs: Reg(rs), Rt: Reg(rt), Imm: imm})
	})
}
