// Package renamer implements the RENO extended register map table of
// Sections 2.3 and 3.2: logical registers map to physical-register /
// displacement pairs, l -> [p:d], instead of the conventional l -> [p].
//
// A mapping [p:d] denotes the value (contents of p) + d. Conventional
// renaming is the special case d == 0. RENO.CF eliminates a
// register-immediate addition by writing its destination's mapping as
// [p_src : d_src + imm] — deferring the addition into the map table — and
// the paper's overflow rule (16-bit displacement field, conservatively
// checked) bounds d.
//
// The recovery styles of Section 3.4 (checkpoint restoration and
// per-instruction rollback) are not modelled: the trace-driven simulator
// never renames a wrong-path instruction, and its squash replays reuse the
// rename records already made, so the table only moves forward.
package renamer

import (
	"fmt"

	"reno/internal/isa"
	"reno/internal/refcount"
)

// Mapping is one map-table entry: physical register plus displacement.
type Mapping struct {
	P int   // physical register
	D int32 // displacement (16-bit in hardware; checked on fold)
}

func (m Mapping) String() string {
	if m.D == 0 {
		return fmt.Sprintf("[p%d]", m.P)
	}
	return fmt.Sprintf("[p%d:%d]", m.P, m.D)
}

// DispBits is the width of the hardware displacement field. The Alpha ISA
// uses 8- and 16-bit immediates, so displacements are 16 bits (Section 4.1).
const DispBits = 16

const (
	dispMax = 1<<(DispBits-1) - 1
	dispMin = -(1 << (DispBits - 1))
)

// FitsDisp reports whether d fits the displacement field exactly.
func FitsDisp(d int64) bool { return d >= dispMin && d <= dispMax }

// conservativeBits is the magnitude the hardware's quick top-bits overflow
// check certifies: the RENAME1-stage check examines only the upper two bits
// of the existing displacement and the incoming immediate (Section 3.2), so
// it conservatively folds only when both operands provably cannot carry out
// of the field, i.e., both fit in DispBits-2 bits.
const conservativeBits = DispBits - 2

// FoldDisp attempts to accumulate imm onto d under the hardware's
// conservative overflow rule. ok is false when folding must be canceled.
func FoldDisp(d int32, imm int32) (sum int32, ok bool) {
	lim := int32(1)<<(conservativeBits-1) - 1
	if d > lim || d < -lim-1 || imm > lim || imm < -lim-1 {
		return 0, false
	}
	return d + imm, true
}

// MapTable is the RENO map table over the logical register file.
type MapTable struct {
	m  [isa.NumLogicalRegs]Mapping
	rc *refcount.Table
}

// New creates a map table backed by the given reference-count table. Every
// logical register initially maps to the pinned zero physical register, and
// the first writer of each logical register allocates its real home. Until
// then the table reads the register as zero and as equal to every other
// unwritten register, whatever value it holds: the emulator starts sp at
// 1<<30, and a post-warmup snapshot holds non-zero registers (a documented
// deviation, docs/architecture.md). The zero register's count is pinned and
// untracked, so the initial mappings need no increments.
func New(rc *refcount.Table) *MapTable {
	t := &MapTable{}
	t.Reset(rc)
	return t
}

// Reset maps every logical register back to the zero register, backed by
// rc: t is then as New(rc) builds it.
func (t *MapTable) Reset(rc *refcount.Table) {
	t.rc = rc
	for r := range t.m {
		t.m[r] = Mapping{P: refcount.ZeroReg}
	}
}

// Lookup returns the current mapping of r. The zero register always reads
// as [p0:0] regardless of writes.
func (t *MapTable) Lookup(r isa.Reg) Mapping {
	if r == isa.RZero {
		return Mapping{P: refcount.ZeroReg}
	}
	return t.m[r]
}

// SetNew points r at a freshly allocated physical register (displacement
// zero) and returns the displaced old mapping. The caller has already
// allocated p via the refcount table (count 1 = this map entry).
func (t *MapTable) SetNew(r isa.Reg, p int) (old Mapping) {
	old = t.m[r]
	t.m[r] = Mapping{P: p}
	return old
}

// SetShared points r at an existing mapping (a RENO sharing operation),
// incrementing the target's reference count, and returns the old mapping.
func (t *MapTable) SetShared(r isa.Reg, m Mapping) (old Mapping) {
	t.rc.Inc(m.P)
	old = t.m[r]
	t.m[r] = m
	return old
}

// LiveRefsInto accumulates, for invariant checking, how many map entries
// point at each physical register into counts (indexed by physical register;
// the caller zeroes it beforehand). It allocates nothing, so stats and
// invariant paths can run it at cycle or interval granularity.
func (t *MapTable) LiveRefsInto(counts []int) {
	for r := range t.m {
		if isa.Reg(r) == isa.RZero {
			counts[refcount.ZeroReg]++ // the architectural read path
			continue
		}
		counts[t.m[r].P]++
	}
}
