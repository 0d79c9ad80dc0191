package isa

// Facts holds the answers of the ISA queries for one static instruction,
// worked out once by Predecode so that the emulator, the elimination
// engine and the pipeline read them per dynamic instruction instead of
// asking the opcode table again. It is one 32-bit word: it fits the
// padding of a trace record, carries no pointer, and is passed in a
// register.
//
// Only Predecode builds a Facts. The zero value is not the record of any
// instruction: Decoded reports false for it, so a consumer can refuse a
// record that skipped predecode instead of reading it as a source-less
// instruction that writes nothing.
type Facts struct {
	w uint32 // rs | rt<<8 | class<<16 | nsrc<<24 | flags
}

// Facts word layout: the two source registers, the class and the source
// count in the low 26 bits, one flag per bit above.
const (
	factRtShift    = 8
	factClassShift = 16
	factNSrcShift  = 24
)

const (
	factDecoded     uint32 = 1 << (26 + iota) // built by Predecode
	factDest                                  // HasDest
	factMove                                  // IsMove
	factRegImmAdd                             // IsRegImmAdd
	factZeroSrcAdd                            // IsRegImmAddZeroSrc
	factNegatedDisp                           // FoldedDisp is -Imm
)

// Predecode returns i's Facts, each one the answer of the ISA query it
// stands for, operand-dependent cases (`jr ra` is a return) included.
func Predecode(i Inst) Facts {
	rs, rt := Sources(i)
	w := uint32(rs) | uint32(rt)<<factRtShift |
		uint32(ClassOf(i))<<factClassShift | uint32(NumSources(i))<<factNSrcShift | factDecoded
	for _, c := range []struct {
		holds bool
		flag  uint32
	}{
		{HasDest(i), factDest},
		{IsMove(i), factMove},
		{IsRegImmAdd(i), factRegImmAdd},
		{IsRegImmAddZeroSrc(i), factZeroSrcAdd},
		{FoldedDisp(Inst{Op: i.Op, Imm: 1}) < 0, factNegatedDisp},
	} {
		if c.holds {
			w |= c.flag
		}
	}
	return Facts{w}
}

// Decoded reports whether f was built by Predecode.
//
//reno:hotpath
func (f Facts) Decoded() bool { return f.w&factDecoded != 0 }

// Sources is Sources(i).
//
//reno:hotpath
func (f Facts) Sources() (rs, rt Reg) { return Reg(f.w), Reg(f.w >> factRtShift) }

// NumSources is NumSources(i).
//
//reno:hotpath
func (f Facts) NumSources() int { return int(f.w >> factNSrcShift & 3) }

// Class is ClassOf(i).
//
//reno:hotpath
func (f Facts) Class() Class { return Class(f.w >> factClassShift) }

// HasDest is HasDest(i).
//
//reno:hotpath
func (f Facts) HasDest() bool { return f.w&factDest != 0 }

// IsMove is IsMove(i).
//
//reno:hotpath
func (f Facts) IsMove() bool { return f.w&factMove != 0 }

// IsRegImmAdd is IsRegImmAdd(i).
//
//reno:hotpath
func (f Facts) IsRegImmAdd() bool { return f.w&factRegImmAdd != 0 }

// IsCFCandidate is IsCFCandidate(i).
//
//reno:hotpath
func (f Facts) IsCFCandidate() bool { return f.w&(factRegImmAdd|factMove) != 0 }

// IsRegImmAddZeroSrc is IsRegImmAddZeroSrc(i).
//
//reno:hotpath
func (f Facts) IsRegImmAddZeroSrc() bool { return f.w&factZeroSrcAdd != 0 }

// FoldedDisp is FoldedDisp(i), given i's immediate.
//
//reno:hotpath
func (f Facts) FoldedDisp(imm int32) int32 {
	if f.w&factNegatedDisp != 0 {
		return -imm
	}
	return imm
}
