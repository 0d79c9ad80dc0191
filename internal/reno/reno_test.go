package reno

import (
	"math/rand"
	"testing"
	"unsafe"

	"reno/internal/isa"
	"reno/internal/refcount"
	"reno/internal/renamer"
)

// groupInst is one instruction presented to the renamer with its trace
// oracle value.
type groupInst struct {
	Inst   isa.Inst
	Result uint64
}

// renameOne is RenameOneInto returning the record.
func renameOne(o *Optimizer, gi groupInst, elimDest uint32) (Renamed, bool) {
	var r Renamed
	ok := o.RenameOneInto(&gi.Inst, isa.Predecode(gi.Inst), gi.Result, &r, elimDest)
	return r, ok
}

// rename1 pushes a single instruction through the optimizer.
func rename1(t *testing.T, o *Optimizer, in isa.Inst, result uint64) Renamed {
	t.Helper()
	r, ok := renameOne(o, groupInst{Inst: in, Result: result}, 0)
	if !ok {
		t.Fatalf("rename of %v stalled", in)
	}
	return r
}

// renameGroup renames g as one rename group (the same-group dependence
// restriction of Section 3.2 applies across it), stopping at the first
// instruction that finds the register file exhausted.
func renameGroup(o *Optimizer, g []groupInst) (out []Renamed, n int) {
	var mask uint32
	for _, gi := range g {
		r, ok := renameOne(o, gi, mask)
		if !ok {
			break
		}
		mask = UpdateGroupMask(mask, &r)
		out = append(out, r)
		n++
	}
	return out, n
}

// TestFigure1MoveElimination walks the paper's Figure 1 sequence:
//
//	add r1, r2, r3   -> executes, r3 -> p_new
//	move r3, r2      -> eliminated, r2 shares r3's register
//	load r4, 8(r2)   -> renamed to read the shared register
func TestFigure1MoveElimination(t *testing.T) {
	o := New(Config{PhysRegs: 64, EnableME: true})
	add := rename1(t, o, isa.R(isa.OpAdd, 3, 1, 2), 0)
	if add.Elim {
		t.Fatal("add eliminated")
	}
	p3 := add.NewMap.P

	mv := rename1(t, o, isa.Move(2, 3), 0)
	if !mv.Elim || mv.Kind != KindME {
		t.Fatalf("move not ME-eliminated: %+v", mv)
	}
	if mv.NewMap.P != p3 {
		t.Errorf("move mapped to p%d, want shared p%d", mv.NewMap.P, p3)
	}
	if o.RefCounts().Count(p3) != 2 {
		t.Errorf("shared register count = %d, want 2", o.RefCounts().Count(p3))
	}

	ld := rename1(t, o, isa.Ld(4, 2, 8), 0)
	if ld.Src[0].P != p3 {
		t.Errorf("load base = p%d, want short-circuited p%d", ld.Src[0].P, p3)
	}
}

// TestFigure2ConstantFolding walks Figure 2:
//
//	add r1, r2, r3       -> r3 -> [p3:0]
//	addi r3, 4, r2       -> eliminated, r2 -> [p3:4]
//	load r4, 8(r2)       -> renamed load p5, 8([p3:4])
func TestFigure2ConstantFolding(t *testing.T) {
	o := New(MECF(64))
	add := rename1(t, o, isa.R(isa.OpAdd, 3, 1, 2), 0)
	p3 := add.NewMap.P

	addi := rename1(t, o, isa.Addi(2, 3, 4), 0)
	if !addi.Elim || addi.Kind != KindCF {
		t.Fatalf("addi not CF-eliminated: %+v", addi)
	}
	if addi.NewMap != (renamer.Mapping{P: p3, D: 4}) {
		t.Errorf("addi mapping = %v, want [p%d:4]", addi.NewMap, p3)
	}

	ld := rename1(t, o, isa.Ld(4, 2, 8), 0)
	if ld.Elim {
		t.Fatal("load eliminated with no IT configured")
	}
	if ld.Src[0] != (renamer.Mapping{P: p3, D: 4}) {
		t.Errorf("load base = %v, want [p%d:4]", ld.Src[0], p3)
	}
	if !ld.Fused || ld.FusePenalty != 0 {
		t.Errorf("load fusion: fused=%v penalty=%d; address fusion is free", ld.Fused, ld.FusePenalty)
	}
}

// TestFigure4FoldingChain walks Figure 4: dependent addis accumulate into
// one displacement across cycles; an `or` consumer fuses the pending add.
func TestFigure4FoldingChain(t *testing.T) {
	o := New(MECF(64))
	// Give r1 a real register first.
	base := rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	p1 := base.NewMap.P

	a1 := rename1(t, o, isa.Addi(2, 1, 5), 0)
	if !a1.Elim || a1.NewMap != (renamer.Mapping{P: p1, D: 5}) {
		t.Fatalf("addi r2, r1, 5: %+v", a1)
	}
	a2 := rename1(t, o, isa.Addi(4, 2, 6), 0)
	if !a2.Elim || a2.NewMap != (renamer.Mapping{P: p1, D: 11}) {
		t.Fatalf("addi r4, r2, 6 should map [p:11]: %+v", a2)
	}
	or := rename1(t, o, isa.R(isa.OpOr, 8, 4, 1), 0)
	if or.Elim {
		t.Fatal("or eliminated")
	}
	if or.Src[0] != (renamer.Mapping{P: p1, D: 11}) {
		t.Errorf("or src0 = %v, want [p%d:11]", or.Src[0], p1)
	}
	if !or.Fused || or.FusePenalty != 0 {
		t.Errorf("or fusion: fused=%v penalty=%d (single displaced input is free)", or.Fused, or.FusePenalty)
	}
	if or.NewMap.D != 0 {
		t.Error("computing instruction must produce a zero-displacement mapping")
	}
}

// TestSameCycleDependentElimination enforces the Section 3.2 restriction:
// two dependent collapsible instructions renamed in one cycle collapse only
// the older one.
func TestSameCycleDependentElimination(t *testing.T) {
	o := New(MECF(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0) // r1 real

	group := []groupInst{
		{Inst: isa.Addi(2, 1, 5)}, // I0: foldable
		{Inst: isa.Addi(4, 2, 6)}, // I1: depends on I0 -> renamed normally
	}
	out, n := renameGroup(o, group)
	if n != 2 {
		t.Fatal("group stalled")
	}
	if !out[0].Elim {
		t.Error("I0 not eliminated")
	}
	if out[1].Elim {
		t.Error("dependent I1 eliminated in the same cycle")
	}
	// I1 still reads the folded mapping and fuses for free.
	if out[1].Src[0].D != 5 {
		t.Errorf("I1 src disp = %d, want 5", out[1].Src[0].D)
	}
	if o.Stats.FoldCancelGroupDep != 1 {
		t.Errorf("group-dep cancels = %d, want 1", o.Stats.FoldCancelGroupDep)
	}

	// Across cycles the same pair folds fully (Figure 4).
	o2 := New(MECF(64))
	rename1(t, o2, isa.R(isa.OpAdd, 1, 2, 3), 0)
	rename1(t, o2, isa.Addi(2, 1, 5), 0)
	r := rename1(t, o2, isa.Addi(4, 2, 6), 0)
	if !r.Elim {
		t.Error("cross-cycle dependent fold failed")
	}
}

func TestIndependentPairBothEliminated(t *testing.T) {
	o := New(MECF(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	rename1(t, o, isa.R(isa.OpAdd, 5, 2, 3), 0)
	out, n := renameGroup(o, []groupInst{
		{Inst: isa.Addi(2, 1, 5)},
		{Inst: isa.Addi(6, 5, 6)},
	})
	if n != 2 || !out[0].Elim || !out[1].Elim {
		t.Errorf("independent foldables not both eliminated: %v %v", out[0].Elim, out[1].Elim)
	}
}

func TestOverflowCancelsFolding(t *testing.T) {
	o := New(MECF(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	// Build up a large displacement, then push it past the conservative
	// limit: folding must cancel and the addi must execute.
	r := rename1(t, o, isa.Addi(1, 1, 8000), 0)
	if !r.Elim {
		t.Fatal("first fold refused")
	}
	// Second fold still passes the top-bits check (both operands below
	// 2^13), pushing the accumulated displacement to 16000...
	r = rename1(t, o, isa.Addi(1, 1, 8000), 0)
	if !r.Elim {
		t.Fatal("second fold refused despite passing the conservative check")
	}
	// ...after which the displacement itself fails the check and folding
	// cancels, even though the exact sum (24000) would still fit 16 bits:
	// that is what makes the check conservative.
	r = rename1(t, o, isa.Addi(1, 1, 8000), 0)
	if r.Elim {
		t.Fatal("fold accepted past conservative overflow limit")
	}
	if o.Stats.FoldCancelOverflow == 0 {
		t.Error("overflow cancel not counted")
	}
	if r.NewMap.D != 0 {
		t.Error("canceled fold produced displaced output mapping")
	}
	// The executing addi reads the displaced source and fuses it (free:
	// generic ALU, one displaced input).
	if !r.Fused || r.FusePenalty != 0 {
		t.Errorf("canceled fold fusion: %v/%d", r.Fused, r.FusePenalty)
	}
}

func TestCSELoadIntegration(t *testing.T) {
	o := New(Default(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	ld1 := rename1(t, o, isa.Ld(3, 1, 8), 111)
	if ld1.Elim {
		t.Fatal("first load eliminated")
	}
	ld2 := rename1(t, o, isa.Ld(4, 1, 8), 111)
	if !ld2.Elim || ld2.Kind != KindCSELoad {
		t.Fatalf("second load not integrated: %+v", ld2)
	}
	if ld2.NewMap.P != ld1.NewMap.P {
		t.Error("integrated load does not share the first load's register")
	}
	if !ld2.Reexec || ld2.MisBypass {
		t.Errorf("integrated load reexec=%v misBypass=%v", ld2.Reexec, ld2.MisBypass)
	}
}

func TestRAStoreLoadBypass(t *testing.T) {
	o := New(Default(64))
	v := rename1(t, o, isa.R(isa.OpAdd, 2, 1, 1), 0) // r2 = value
	st := rename1(t, o, isa.St(2, isa.RSP, 8), 99)
	if st.HasDest {
		t.Fatal("store has a destination")
	}
	ld := rename1(t, o, isa.Ld(4, isa.RSP, 8), 99)
	if !ld.Elim || ld.Kind != KindRALoad {
		t.Fatalf("stack load not bypassed: %+v", ld)
	}
	if ld.NewMap.P != v.NewMap.P {
		t.Errorf("bypassed load maps p%d, want store data p%d", ld.NewMap.P, v.NewMap.P)
	}
}

// TestRAAcrossSPAdjustment checks bypassing across a stack frame push/pop
// when CF folds the sp arithmetic (the paper's synergy argument, §2.4).
func TestRAAcrossSPAdjustment(t *testing.T) {
	o := New(Default(64))
	v := rename1(t, o, isa.R(isa.OpAdd, 2, 1, 1), 0)
	rename1(t, o, isa.St(2, isa.RSP, 8), 99)
	// Frame push/pop: both fold, so sp's mapping returns to [p_sp:+8-8=0]
	// ... actually [p:d] with d back to its original value.
	sub := rename1(t, o, isa.I(isa.OpSubi, isa.RSP, isa.RSP, 16), 0)
	if !sub.Elim {
		t.Fatal("sp decrement not folded")
	}
	add := rename1(t, o, isa.Addi(isa.RSP, isa.RSP, 16), 0)
	if !add.Elim {
		t.Fatal("sp increment not folded")
	}
	ld := rename1(t, o, isa.Ld(4, isa.RSP, 8), 99)
	if !ld.Elim || ld.Kind != KindRALoad {
		t.Fatalf("load after folded sp round-trip not bypassed: %+v", ld)
	}
	if ld.NewMap.P != v.NewMap.P {
		t.Error("bypass mapped the wrong register")
	}
}

func TestCSEALUOnlyUnderFullPolicy(t *testing.T) {
	full := New(FullIntegration(64))
	rename1(t, full, isa.R(isa.OpAdd, 1, 2, 3), 0)
	a1 := rename1(t, full, isa.R(isa.OpXor, 4, 1, 1), 7)
	a2 := rename1(t, full, isa.R(isa.OpXor, 5, 1, 1), 7)
	if a2.Kind != KindCSEALU || !a2.Elim {
		t.Fatalf("redundant xor not integrated under full policy: %+v", a2)
	}
	if a2.NewMap.P != a1.NewMap.P {
		t.Error("wrong shared register")
	}

	loads := New(Default(64))
	rename1(t, loads, isa.R(isa.OpAdd, 1, 2, 3), 0)
	rename1(t, loads, isa.R(isa.OpXor, 4, 1, 1), 7)
	b2 := rename1(t, loads, isa.R(isa.OpXor, 5, 1, 1), 7)
	if b2.Elim {
		t.Error("ALU op integrated under loads-only policy")
	}
}

func TestMoveCountsAsMEUnderCF(t *testing.T) {
	o := New(MECF(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	mv := rename1(t, o, isa.Move(2, 1), 0)
	if !mv.Elim || mv.Kind != KindME {
		t.Errorf("move under CF: kind = %v", mv.Kind)
	}
	if o.Stats.Eliminated[KindME] != 1 || o.Stats.Eliminated[KindCF] != 0 {
		t.Error("move misattributed in stats")
	}
}

func TestBaselineEliminatesNothing(t *testing.T) {
	o := New(Baseline(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	mv := rename1(t, o, isa.Move(2, 1), 0)
	ai := rename1(t, o, isa.Addi(3, 1, 4), 0)
	if mv.Elim || ai.Elim {
		t.Error("baseline eliminated instructions")
	}
	if o.Stats.Total() != 0 {
		t.Error("baseline stats non-zero")
	}
}

func TestCommitFreesOldMapping(t *testing.T) {
	o := New(Baseline(40))
	r1 := rename1(t, o, isa.Addi(1, isa.RZero, 5), 5) // r1 -> pA
	pA := r1.NewMap.P
	r2 := rename1(t, o, isa.Addi(1, isa.RZero, 6), 6) // r1 -> pB, holds pA
	if r2.OldMap.P != pA {
		t.Fatalf("old mapping = %v, want p%d", r2.OldMap, pA)
	}
	if o.RefCounts().Count(pA) != 1 {
		t.Fatal("pA freed early")
	}
	o.Commit(&r1) // old mapping was p0: no-op
	o.Commit(&r2) // frees pA
	if o.RefCounts().Count(pA) != 0 {
		t.Errorf("pA count after commit = %d, want 0", o.RefCounts().Count(pA))
	}
}

func TestRenameStallsWhenFileExhausted(t *testing.T) {
	o := New(Baseline(isa.NumLogicalRegs + 3))
	var live []Renamed
	for i := 0; ; i++ {
		r, ok := renameOne(o, groupInst{Inst: isa.Addi(isa.Reg(1+i%8), isa.RZero, int32(i))}, 0)
		if !ok {
			break
		}
		live = append(live, r)
		if i > 100 {
			t.Fatal("never stalled")
		}
	}
	if len(live) == 0 {
		t.Fatal("no renames succeeded")
	}
	// Committing the oldest frees its displaced mapping (p0 for the first
	// writers, real registers later) and eventually unblocks.
	for i := range live {
		o.Commit(&live[i])
	}
	if _, ok := renameOne(o, groupInst{Inst: isa.Addi(1, isa.RZero, 9)}, 0); !ok {
		t.Error("rename still stalled after commits freed registers")
	}
}

func TestEliminatedInstructionsConsumeNoRegisters(t *testing.T) {
	o := New(MECF(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	free := o.RefCounts().Free()
	for i := 0; i < 10; i++ {
		r := rename1(t, o, isa.Addi(2, 1, 1), 0)
		if !r.Elim {
			t.Fatal("fold failed")
		}
	}
	if o.RefCounts().Free() != free {
		t.Errorf("eliminated instructions consumed %d registers", free-o.RefCounts().Free())
	}
}

func TestFusionPenalties(t *testing.T) {
	o := New(MECF(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	rename1(t, o, isa.R(isa.OpAdd, 2, 3, 4), 0)
	rename1(t, o, isa.Addi(5, 1, 4), 0) // r5 -> [p1:4]
	rename1(t, o, isa.Addi(6, 2, 8), 0) // r6 -> [p2:8]

	mul := rename1(t, o, isa.R(isa.OpMul, 7, 5, 3), 0)
	if mul.FusePenalty != 1 {
		t.Errorf("mul fusion penalty = %d, want 1", mul.FusePenalty)
	}
	shift := rename1(t, o, isa.I(isa.OpSlli, 7, 5, 3), 0)
	if shift.FusePenalty != 1 {
		t.Errorf("shift fusion penalty = %d, want 1", shift.FusePenalty)
	}
	both := rename1(t, o, isa.R(isa.OpAdd, 7, 5, 6), 0)
	if both.FusePenalty != 1 {
		t.Errorf("both-displaced ALU penalty = %d, want 1", both.FusePenalty)
	}
	one := rename1(t, o, isa.R(isa.OpAdd, 8, 5, 3), 0)
	if one.FusePenalty != 0 {
		t.Errorf("single-displaced ALU penalty = %d, want 0", one.FusePenalty)
	}
	st := rename1(t, o, isa.St(5, 5, 4), 0)
	if st.FusePenalty != 0 {
		t.Errorf("store fusion penalty = %d, want 0 (address + data adders)", st.FusePenalty)
	}
}

func TestPenalizeAllFusions(t *testing.T) {
	cfg := MECF(64)
	cfg.PenalizeAllFusions = true
	o := New(cfg)
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	rename1(t, o, isa.Addi(5, 1, 4), 0)
	ld := rename1(t, o, isa.Ld(6, 5, 8), 0)
	if ld.FusePenalty != 1 {
		t.Errorf("ablated load fusion penalty = %d, want 1", ld.FusePenalty)
	}
}

func TestFoldZeroSourceExtension(t *testing.T) {
	cfg := MECF(64)
	cfg.FoldZeroSource = true
	o := New(cfg)
	li := rename1(t, o, isa.Addi(1, isa.RZero, 42), 42)
	if !li.Elim || li.NewMap != (renamer.Mapping{P: refcount.ZeroReg, D: 42}) {
		t.Errorf("zero-source fold: %+v", li)
	}
	if o.Stats.ZeroSourceFolds != 1 {
		t.Error("zero-source fold not counted")
	}
	// Default config must not fold immediate loads.
	o2 := New(MECF(64))
	li2 := rename1(t, o2, isa.Addi(1, isa.RZero, 42), 42)
	if li2.Elim {
		t.Error("zero-source folded without the extension enabled")
	}
}

// TestReexecMismatchInvalidates: a load whose integration tuple promises a
// stale value is judged at rename. It renames conventionally with MisBypass
// set, counts one re-execution failure, and replaces the stale tuple with
// its own, which a later load of the same (now current) value integrates.
func TestReexecMismatchInvalidates(t *testing.T) {
	o := New(Default(64))
	rename1(t, o, isa.R(isa.OpAdd, 1, 2, 3), 0)
	rename1(t, o, isa.Ld(3, 1, 8), 111)
	lookups, hits := o.IT().Lookups, o.IT().Hits
	ld2 := rename1(t, o, isa.Ld(4, 1, 8), 222) // memory changed: stale value
	if ld2.Elim || !ld2.MisBypass || ld2.Reexec {
		t.Fatalf("stale bypass: elim=%v misBypass=%v reexec=%v, want a conventional MisBypass load",
			ld2.Elim, ld2.MisBypass, ld2.Reexec)
	}
	if o.Stats.ReexecFails != 1 {
		t.Errorf("re-execution failures = %d, want 1", o.Stats.ReexecFails)
	}
	if o.IT().Lookups != lookups+1 || o.IT().Hits != hits {
		t.Errorf("judging the bypass changed IT statistics: lookups +%d, hits +%d, want +1 and +0",
			o.IT().Lookups-lookups, o.IT().Hits-hits)
	}
	ld3 := rename1(t, o, isa.Ld(5, 1, 8), 222)
	if !ld3.Elim || ld3.MisBypass || ld3.NewMap.P != ld2.NewMap.P {
		t.Errorf("load after the verdict: elim=%v misBypass=%v p%d, want integration with p%d",
			ld3.Elim, ld3.MisBypass, ld3.NewMap.P, ld2.NewMap.P)
	}
}

// TestRenamedSize keeps the rename record from growing: the elimination
// engine builds one in its window per decision, and the detailed
// pipeline's in-flight entries point at them.
func TestRenamedSize(t *testing.T) {
	if n := unsafe.Sizeof(Renamed{}); n > 120 {
		t.Errorf("Renamed is %d bytes, want at most 120", n)
	}
}

// TestRandomizedInvariants drives the optimizer with random instructions
// and random commits, and validates reference-count conservation
// throughout.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		cfgs := []Config{Baseline(48), MECF(48), Default(48), FullIntegration(48)}
		o := New(cfgs[trial%len(cfgs)])
		var inflight []Renamed

		holds := func() map[int]int {
			h := map[int]int{}
			for i := range inflight {
				if inflight[i].HasDest {
					h[inflight[i].OldMap.P]++
				}
			}
			return h
		}

		randInst := func() isa.Inst {
			switch rng.Intn(6) {
			case 0:
				return isa.Move(isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)))
			case 1:
				return isa.Addi(isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)), int32(rng.Intn(64)))
			case 2:
				return isa.Ld(isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)), int32(rng.Intn(4)*8))
			case 3:
				return isa.St(isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)), int32(rng.Intn(4)*8))
			case 4:
				return isa.R(isa.OpAdd, isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)))
			default:
				return isa.R(isa.OpXor, isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)))
			}
		}

		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0, 1: // rename
				if r, ok := renameOne(o, groupInst{Inst: randInst(), Result: uint64(rng.Int63())}, 0); ok {
					inflight = append(inflight, r)
				}
			case 2: // commit oldest
				if len(inflight) > 0 {
					o.Commit(&inflight[0])
					inflight = inflight[1:]
				}
			}
			if err := o.CheckInvariant(holds()); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestRenameOneIntoOverwritesRecord: RenameOneInto writes every field of
// the record it is given, on every path (eliminated, conventional, failed
// for want of a register), so a reused window slot carries nothing over
// from its last instruction. Two optimizers see the same stream; one
// renames into fresh records, the other into records full of stale values.
func TestRenameOneIntoOverwritesRecord(t *testing.T) {
	stale := Renamed{
		Inst: isa.R(isa.OpMul, 5, 6, 7), Src: [2]renamer.Mapping{{P: 9, D: 3}, {P: 8, D: 4}}, NSrc: 2,
		HasDest: true, Dest: 3, NewMap: renamer.Mapping{P: 7, D: 1}, OldMap: renamer.Mapping{P: 6, D: 2},
		Elim: true, Kind: KindCSEALU, FusePenalty: 1, Fused: true, Reexec: true, MisBypass: true,
	}
	for _, cfg := range []Config{Default(40), RENOPlusFullIntegration(40), FullIntegration(40), Baseline(40)} {
		rng := rand.New(rand.NewSource(7))
		a, b := New(cfg), New(cfg)
		var inflight []Renamed
		var mask uint32
		for step := 0; step < 3000; step++ {
			if step%4 == 0 {
				mask = 0
			}
			rd, rs, rt := isa.Reg(1+rng.Intn(8)), isa.Reg(1+rng.Intn(8)), isa.Reg(rng.Intn(9))
			var in isa.Inst
			switch rng.Intn(7) {
			case 0:
				in = isa.Move(rd, rs)
			case 1:
				in = isa.Addi(rd, rt, int32(rng.Intn(1<<15))-1<<14)
			case 2:
				in = isa.Ld(rd, rs, int32(rng.Intn(4)*8))
			case 3:
				in = isa.St(rt, rs, int32(rng.Intn(4)*8))
			case 4:
				in = isa.R(isa.OpSll, rd, rs, rt)
			case 5:
				in = isa.R(isa.OpAdd, rd, rs, rt)
			default:
				in = isa.Branch(isa.OpBeq, rs, rt, 2)
			}
			result := uint64(rng.Intn(4)) // few values, so some bypasses go stale
			var fresh Renamed
			reused := stale
			okA := a.RenameOneInto(&in, isa.Predecode(in), result, &fresh, mask)
			okB := b.RenameOneInto(&in, isa.Predecode(in), result, &reused, mask)
			if okA != okB || fresh != reused {
				t.Fatalf("%+v step %d: %v %+v into a fresh record, %v %+v into a stale one", cfg, step, okA, fresh, okB, reused)
			}
			if okA {
				mask = UpdateGroupMask(mask, &fresh)
				inflight = append(inflight, fresh)
			}
			if len(inflight) > 0 && (!okA || rng.Intn(3) == 0) {
				a.Commit(&inflight[0])
				b.Commit(&inflight[0])
				inflight = inflight[1:]
			}
		}
	}
}
