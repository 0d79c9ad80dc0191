// Package reno implements the unified RENO renaming optimizer of the paper:
// a modified MIPS-R10000-style renamer that collapses instructions out of
// the dynamic instruction stream by physical register sharing.
//
// RENO looks for instructions whose output values provably already exist
// (or will exist) in the physical register file — or, for RENO.CF, whose
// output differs from an existing value by an immediate — and maps their
// destination to the existing register instead of allocating and executing:
//
//   - RENO.ME (dynamic move elimination): a move's destination maps to its
//     source's physical register.
//   - RENO.CF (dynamic constant folding): a register-immediate addition's
//     destination maps to [p_src : d_src + imm] in the extended map table;
//     the deferred addition later fuses into consumers (3-input adders).
//   - RENO.CSE (dynamic common-subexpression elimination): an instruction
//     whose dataflow signature hits in the integration table maps to the
//     tuple's output register.
//   - RENO.RA (speculative memory bypassing): a load that hits a reverse
//     tuple created by the matching store maps directly to the store's data
//     register, collapsing producer-store-load-consumer to
//     producer-consumer.
//
// Eliminated instructions consume no issue-queue slot, physical register,
// or execution bandwidth; they still occupy a reorder-buffer slot and
// commit in order (integrated loads re-execute at retirement). The
// optimizer works solely on physical register *names* and immediates — it
// never reads or writes register values. (The Value fields threaded through
// the integration table exist only so the trace-driven simulator can
// adjudicate retirement-time re-execution of speculatively bypassed loads.)
package reno

import (
	"fmt"

	"reno/internal/isa"
	"reno/internal/it"
	"reno/internal/refcount"
	"reno/internal/renamer"
)

// Kind classifies how an instruction was eliminated.
type Kind uint8

const (
	KindNone    Kind = iota
	KindME           // move elimination
	KindCF           // constant folding (register-immediate addition)
	KindCSELoad      // load integrated against a forward (load) tuple
	KindRALoad       // load integrated against a reverse (store) tuple
	KindCSEALU       // ALU operation integrated (PolicyFull only)

	// NumKinds sizes per-kind tallies (Stats.Eliminated and the
	// backend-side commit tallies that must mirror it).
	NumKinds = int(KindCSEALU) + 1
)

func (k Kind) String() string {
	switch k {
	case KindME:
		return "ME"
	case KindCF:
		return "CF"
	case KindCSELoad:
		return "CSE.load"
	case KindRALoad:
		return "RA.load"
	case KindCSEALU:
		return "CSE.alu"
	}
	return "none"
}

// Config selects the RENO configuration. Every field carries a JSON tag so
// configurations are fully declarative: named presets in the
// internal/machine registry round-trip through JSON, and inline spec objects
// in v2 sweep grids override them field-by-field.
//
//reno:config
type Config struct {
	PhysRegs int `json:"phys_regs"` // physical register file size (paper baseline: 160)

	EnableME    bool `json:"enable_me"`     // move elimination
	EnableCF    bool `json:"enable_cf"`     // constant folding (subsumes ME when enabled)
	EnableCSERA bool `json:"enable_cse_ra"` // integration (CSE + speculative memory bypassing)

	ITEntries int       `json:"it_entries"` // integration table entries (paper: 512)
	ITWays    int       `json:"it_ways"`    // associativity (paper: 2)
	ITPolicy  it.Policy `json:"it_policy"`

	// FoldZeroSource extends RENO.CF to fold immediate loads
	// (addi rd, zero, imm) by mapping rd -> [p0:imm]. An extension beyond
	// the paper; off by default.
	FoldZeroSource bool `json:"fold_zero_source,omitempty"`

	// PenalizeAllFusions charges one extra execute cycle for *every* fused
	// operation instead of only shift/multiply fusions — the Section 3.3
	// ablation ("if the 3-input adder delay cannot be hidden").
	PenalizeAllFusions bool `json:"penalize_all_fusions,omitempty"`
}

// AnyEnabled reports whether the configuration enables any elimination
// mechanism at all. When false, every rename decision is trivially
// conventional and all elimination counts are zero by definition — untimed
// backends use this to skip elimination accounting entirely.
func (c Config) AnyEnabled() bool {
	return c.EnableME || c.EnableCF || c.EnableCSERA
}

// Validate reports the first structural problem with the configuration,
// naming fields by their JSON tags so errors map directly onto spec files.
// PhysRegs == 0 is accepted: it means "let the machine spec choose" and is
// resolved before New is called (New itself panics on an unbacked file).
func (c Config) Validate() error {
	if c.PhysRegs != 0 && c.PhysRegs < isa.NumLogicalRegs+1 {
		return fmt.Errorf("phys_regs (%d) is below the architectural minimum %d (%d logical registers + the hardwired zero home)",
			c.PhysRegs, isa.NumLogicalRegs+1, isa.NumLogicalRegs)
	}
	if c.ITEntries < 0 || c.ITWays < 0 {
		return fmt.Errorf("it_entries (%d) and it_ways (%d) must be >= 0", c.ITEntries, c.ITWays)
	}
	if c.ITPolicy != it.PolicyLoadsOnly && c.ITPolicy != it.PolicyFull {
		return fmt.Errorf("it_policy %d is not a known policy (want %q or %q)", int(c.ITPolicy), it.PolicyLoadsOnly, it.PolicyFull)
	}
	if c.EnableCSERA && c.ITEntries != 0 {
		if c.ITWays < 1 {
			return fmt.Errorf("it_ways must be >= 1 when it_entries is set, got %d", c.ITWays)
		}
		if c.ITEntries%c.ITWays != 0 {
			return fmt.Errorf("it_entries (%d) must be a multiple of it_ways (%d)", c.ITEntries, c.ITWays)
		}
	}
	return nil
}

// Baseline returns a configuration with every optimization disabled: a
// conventional renamer over n physical registers.
func Baseline(n int) Config { return Config{PhysRegs: n} }

// Default returns the paper's advocated configuration: ME+CF plus a
// loads-only integration table (512 entries, 2-way).
func Default(n int) Config {
	return Config{
		PhysRegs: n, EnableME: true, EnableCF: true, EnableCSERA: true,
		ITEntries: 512, ITWays: 2, ITPolicy: it.PolicyLoadsOnly,
	}
}

// MECF returns RENO.ME + RENO.CF with no integration table.
func MECF(n int) Config {
	return Config{PhysRegs: n, EnableME: true, EnableCF: true}
}

// FullIntegration returns classical register integration (all-ops IT)
// without constant folding — the paper's "Full Integ" comparison point.
func FullIntegration(n int) Config {
	return Config{
		PhysRegs: n, EnableME: true, EnableCSERA: true,
		ITEntries: 512, ITWays: 2, ITPolicy: it.PolicyFull,
	}
}

// LoadsIntegration returns loads-only integration without CF ("Loads
// Integ" in Figure 10).
func LoadsIntegration(n int) Config {
	return Config{
		PhysRegs: n, EnableME: true, EnableCSERA: true,
		ITEntries: 512, ITWays: 2, ITPolicy: it.PolicyLoadsOnly,
	}
}

// RENOPlusFullIntegration is the paper's "RENO + Full Integ" bar: CF plus
// an all-ops IT.
func RENOPlusFullIntegration(n int) Config {
	return Config{
		PhysRegs: n, EnableME: true, EnableCF: true, EnableCSERA: true,
		ITEntries: 512, ITWays: 2, ITPolicy: it.PolicyFull,
	}
}

// GroupInst is one decoded instruction presented to the renamer, together
// with the trace oracle values the simulator uses to model retirement-time
// verification of speculative load bypassing.
type GroupInst struct {
	Inst   isa.Inst
	Result uint64 // destination value; for stores, the stored data value
}

// Renamed is the renamer's output record for one instruction. The pipeline
// keeps it in the ROB: it carries everything commit and squash need.
type Renamed struct {
	Inst isa.Inst

	Src  [2]renamer.Mapping // renamed sources (slot 1 = store data for St)
	NSrc int

	HasDest bool
	Dest    isa.Reg
	NewMap  renamer.Mapping // mapping created for the destination
	OldMap  renamer.Mapping // mapping displaced (freed at commit)

	Elim bool
	Kind Kind

	// FusePenalty is the extra execution latency charged by the fusion
	// cost model when a source carries a non-zero displacement.
	FusePenalty int
	// Fused reports that at least one source has a non-zero displacement.
	Fused bool

	// Reexec marks an integrated load that must re-execute at retirement
	// on the store-retirement data cache port.
	Reexec bool
	// ExpectVal is the value integration promised for a Reexec load.
	ExpectVal uint64
}

// Stats aggregates optimizer activity.
type Stats struct {
	Renamed            uint64
	Eliminated         [NumKinds]uint64 // indexed by Kind
	FoldCancelOverflow uint64
	FoldCancelGroupDep uint64
	ZeroSourceFolds    uint64
	FusedOps           uint64
	FusedPenalized     uint64
}

// Total returns the total eliminated instruction count.
func (s *Stats) Total() uint64 {
	var n uint64
	for k := KindME; k <= KindCSEALU; k++ {
		n += s.Eliminated[k]
	}
	return n
}

// Optimizer is the RENO rename-stage optimizer.
type Optimizer struct {
	cfg Config
	rc  *refcount.Table
	mt  *renamer.MapTable
	it  *it.Table

	Stats Stats

	// invScratch backs CheckInvariant's per-register tallies so
	// instrumented runs allocate nothing per check.
	invScratch []int
}

// New builds an optimizer with fresh rename state.
func New(cfg Config) *Optimizer {
	if cfg.PhysRegs < isa.NumLogicalRegs+1 {
		panic(fmt.Sprintf("reno: %d physical registers cannot back %d logical",
			cfg.PhysRegs, isa.NumLogicalRegs))
	}
	o := &Optimizer{cfg: cfg}
	o.rc = refcount.New(cfg.PhysRegs)
	o.mt = renamer.New(o.rc)
	if cfg.EnableCSERA {
		entries, ways := cfg.ITEntries, cfg.ITWays
		if entries == 0 {
			entries, ways = 512, 2
		}
		o.it = it.New(entries, ways, cfg.ITPolicy)
	}
	return o
}

// Config returns the optimizer's configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// RefCounts exposes the reference-count table (pipeline occupancy checks).
func (o *Optimizer) RefCounts() *refcount.Table { return o.rc }

// MapTable exposes the map table (tests).
func (o *Optimizer) MapTable() *renamer.MapTable { return o.mt }

// IT exposes the integration table; nil when CSE/RA is disabled.
func (o *Optimizer) IT() *it.Table { return o.it }

// FreeRegs returns the number of free physical registers.
func (o *Optimizer) FreeRegs() int { return o.rc.Free() }

// zeroMap is the mapping every unused source slot carries.
var zeroMap = renamer.Mapping{P: refcount.ZeroReg}

// RenameGroup renames up to len(g) instructions presented in the same
// cycle, honoring the paper's restriction that an instruction depending on
// an older *eliminated* instruction from the same group is renamed
// conventionally (the output-selection mux simplification of Section 3.2).
//
// It returns the records for the instructions successfully renamed; n may
// be short of len(g) when the physical register file is exhausted — the
// caller re-presents the remainder next cycle.
func (o *Optimizer) RenameGroup(g []GroupInst) (out []Renamed, n int) {
	out = make([]Renamed, 0, len(g))
	var elimDest uint32 // bitmask of logical regs written by group-eliminated insts
	for _, gi := range g {
		r, ok := o.renameOne(gi, elimDest)
		if !ok {
			break // structural stall: no free physical register
		}
		elimDest = UpdateGroupMask(elimDest, &r)
		out = append(out, r)
		n++
	}
	return out, n
}

// RenameOne renames a single instruction against the current rename state.
// elimDest is the group-dependence mask accumulated over older instructions
// renamed in the same cycle (see UpdateGroupMask); pass 0 for the first
// instruction of a group. ok is false when the physical register file is
// exhausted — the caller re-presents the instruction once a register frees.
//
// Callers that drive the optimizer one instruction at a time (the shared
// elimination engine) use this; RenameGroup remains the whole-group
// entry point.
//
//reno:hotpath
func (o *Optimizer) RenameOne(gi GroupInst, elimDest uint32) (Renamed, bool) {
	return o.renameOne(gi, elimDest)
}

// UpdateGroupMask folds one rename result into the same-group elimination
// mask: an eliminated destination sets its bit (younger in-group readers
// rename conventionally, Section 3.2), and a conventional rename of the same
// logical register clears it.
//
//reno:hotpath
func UpdateGroupMask(mask uint32, r *Renamed) uint32 {
	if !r.HasDest {
		return mask
	}
	if r.Elim {
		return mask | 1<<uint(r.Dest)
	}
	return mask &^ (1 << uint(r.Dest))
}

//reno:hotpath
func (o *Optimizer) renameOne(gi GroupInst, elimDest uint32) (Renamed, bool) {
	in := gi.Inst
	r := Renamed{Inst: in, Src: [2]renamer.Mapping{zeroMap, zeroMap}}
	rs, rt := isa.Sources(in)
	r.NSrc = isa.NumSources(in)
	if r.NSrc >= 1 {
		r.Src[0] = o.mt.Lookup(rs)
	}
	if r.NSrc >= 2 {
		r.Src[1] = o.mt.Lookup(rt)
	}
	r.HasDest = isa.HasDest(in)
	r.Dest = in.Rd

	depOnElim := false
	if r.NSrc >= 1 && rs != isa.RZero && elimDest&(1<<uint(rs)) != 0 {
		depOnElim = true
	}
	if r.NSrc >= 2 && rt != isa.RZero && elimDest&(1<<uint(rt)) != 0 {
		depOnElim = true
	}

	// --- Elimination decision tree -------------------------------------
	if r.HasDest && !depOnElim {
		if o.tryEliminate(&r, gi) {
			o.finishRecord(&r)
			o.Stats.Renamed++
			return r, true
		}
	}
	if r.HasDest && depOnElim && o.wouldEliminate(in) {
		o.Stats.FoldCancelGroupDep++
	}

	// --- Conventional rename --------------------------------------------
	if r.HasDest {
		p, ok := o.rc.Alloc()
		if !ok {
			return Renamed{}, false
		}
		r.NewMap = renamer.Mapping{P: p}
		r.OldMap = o.mt.SetNew(r.Dest, p)
		o.insertForwardTuple(&r, gi)
	}
	o.insertReverseTuples(&r, gi)
	o.finishRecord(&r)
	o.Stats.Renamed++
	return r, true
}

// wouldEliminate reports whether in is the kind of instruction the current
// configuration could eliminate, ignoring dynamic conditions (for the
// group-dependence cancellation statistic).
//
//reno:hotpath
func (o *Optimizer) wouldEliminate(in isa.Inst) bool {
	if o.cfg.EnableCF && isa.IsCFCandidate(in) {
		return true
	}
	if o.cfg.EnableME && isa.IsMove(in) {
		return true
	}
	return o.cfg.EnableCSERA && o.it != nil && o.it.Covers(in)
}

// tryEliminate attempts each RENO optimization in priority order and, on
// success, installs the shared mapping. Returns true if eliminated.
//
//reno:hotpath
func (o *Optimizer) tryEliminate(r *Renamed, gi GroupInst) bool {
	in := gi.Inst

	// RENO.CF (subsumes ME when enabled: a move is an addi with imm 0).
	if o.cfg.EnableCF && isa.IsCFCandidate(in) {
		src := r.Src[0]
		if sum, ok := renamer.FoldDisp(src.D, isa.FoldedDisp(in)); ok {
			r.NewMap = renamer.Mapping{P: src.P, D: sum}
			r.OldMap = o.mt.SetShared(r.Dest, r.NewMap)
			r.Elim = true
			if isa.IsMove(in) {
				r.Kind = KindME
			} else {
				r.Kind = KindCF
			}
			o.Stats.Eliminated[r.Kind]++
			return true
		}
		o.Stats.FoldCancelOverflow++
		// fall through: a fold-canceled addi may still integrate below.
	}

	// Zero-source fold extension: addi rd, zero, imm -> rd = [p0:imm].
	if o.cfg.EnableCF && o.cfg.FoldZeroSource && isa.IsRegImmAddZeroSrc(in) {
		if sum, ok := renamer.FoldDisp(0, isa.FoldedDisp(in)); ok {
			r.NewMap = renamer.Mapping{P: refcount.ZeroReg, D: sum}
			r.OldMap = o.mt.SetShared(r.Dest, r.NewMap)
			r.Elim = true
			r.Kind = KindCF
			o.Stats.Eliminated[KindCF]++
			o.Stats.ZeroSourceFolds++
			return true
		}
	}

	// RENO.ME without CF.
	if !o.cfg.EnableCF && o.cfg.EnableME && isa.IsMove(in) && r.Src[0].D == 0 {
		r.NewMap = renamer.Mapping{P: r.Src[0].P}
		r.OldMap = o.mt.SetShared(r.Dest, r.NewMap)
		r.Elim = true
		r.Kind = KindME
		o.Stats.Eliminated[KindME]++
		return true
	}

	// RENO.CSE / RENO.RA via the integration table.
	if o.cfg.EnableCSERA && o.it != nil && o.it.Covers(in) {
		switch isa.ClassOf(in) {
		case isa.ClassLoad:
			outM, val, reverse, hit := o.lookupIT(isa.OpLd, in.Imm, r.Src[0], zeroMap)
			if hit {
				r.NewMap = outM
				r.OldMap = o.mt.SetShared(r.Dest, outM)
				r.Elim = true
				if reverse {
					r.Kind = KindRALoad
				} else {
					r.Kind = KindCSELoad
				}
				r.Reexec = true
				r.ExpectVal = val
				o.Stats.Eliminated[r.Kind]++
				return true
			}
		case isa.ClassIntALU:
			outM, _, _, hit := o.lookupIT(in.Op, in.Imm, r.Src[0], r.Src[1])
			if hit {
				r.NewMap = outM
				r.OldMap = o.mt.SetShared(r.Dest, outM)
				r.Elim = true
				r.Kind = KindCSEALU
				o.Stats.Eliminated[KindCSEALU]++
				return true
			}
		}
	}
	return false
}

// lookupIT probes the integration table, tracking whether the hit entry was
// a reverse (store-created) tuple.
//
//reno:hotpath
func (o *Optimizer) lookupIT(op isa.Op, imm int32, in1, in2 renamer.Mapping) (out renamer.Mapping, val uint64, reverse, hit bool) {
	out, val, rev, hit := o.it.LookupRev(op, imm, in1, in2)
	return out, val, rev, hit
}

// insertForwardTuple installs the IT entry describing the value a
// non-eliminated instruction is computing.
//
//reno:hotpath
func (o *Optimizer) insertForwardTuple(r *Renamed, gi GroupInst) {
	if !o.cfg.EnableCSERA || o.it == nil || !o.it.Covers(r.Inst) {
		return
	}
	switch isa.ClassOf(r.Inst) {
	case isa.ClassLoad:
		o.it.Insert(it.Entry{
			Op: isa.OpLd, Imm: r.Inst.Imm,
			In1: r.Src[0], In2: zeroMap,
			Out:   r.NewMap,
			Value: gi.Result, HasValue: true,
		})
	case isa.ClassIntALU:
		o.it.Insert(it.Entry{
			Op: r.Inst.Op, Imm: r.Inst.Imm,
			In1: r.Src[0], In2: r.Src[1],
			Out:   r.NewMap,
			Value: gi.Result, HasValue: true,
		})
	}
}

// insertReverseTuples installs the speculative-memory-bypassing entries:
// a store creates the tuple its matching future load will probe, and (in
// full-integration mode, where CF is not folding them) a stack-pointer
// decrement creates the tuple the matching increment will probe.
//
//reno:hotpath
func (o *Optimizer) insertReverseTuples(r *Renamed, gi GroupInst) {
	if !o.cfg.EnableCSERA || o.it == nil {
		return
	}
	in := r.Inst
	if in.Op == isa.OpSt {
		// st rt, imm(rs): future `ld rX, imm(rs)` integrates to the data
		// register. Src[0] is the base mapping, Src[1] the data mapping.
		o.it.Insert(it.Entry{
			Op: isa.OpLd, Imm: in.Imm,
			In1: r.Src[0], In2: zeroMap,
			Out:     r.Src[1],
			Reverse: true,
			Value:   gi.Result, HasValue: true,
		})
		return
	}
	// Reverse addi entries for stack-pointer adjustment, so bypassing
	// bootstraps across calls when CF is not eliminating the adjustments
	// (Figure 3 bottom, second row).
	if o.it.PolicyOf() == it.PolicyFull && !o.cfg.EnableCF &&
		isa.IsRegImmAdd(in) && in.Rd == isa.RSP && in.Rs == isa.RSP && r.HasDest {
		o.it.Insert(it.Entry{
			Op: in.Op, Imm: -in.Imm,
			In1: r.NewMap, In2: zeroMap,
			Out:     r.OldMap,
			Reverse: true,
			Value:   gi.Result - uint64(int64(isa.FoldedDisp(in))), HasValue: true,
		})
	}
}

// finishRecord computes the fusion cost classification.
//
//reno:hotpath
func (o *Optimizer) finishRecord(r *Renamed) {
	if r.Elim {
		return // eliminated instructions do not execute
	}
	d1 := r.NSrc >= 1 && r.Src[0].D != 0
	d2 := r.NSrc >= 2 && r.Src[1].D != 0
	if !d1 && !d2 {
		return
	}
	r.Fused = true
	o.Stats.FusedOps++
	r.FusePenalty = o.fusePenalty(r.Inst, d1, d2)
	if r.FusePenalty > 0 {
		o.Stats.FusedPenalized++
	}
}

// fusePenalty implements the Section 3.3 cost model:
//
//   - address generation (loads/stores) absorbs one displacement in the
//     3-input adder: free; the store-data collapse adder is also free;
//   - branch-direction comparison has dedicated 2-input adders: free;
//   - generic single-cycle ALU ops become 3-way ALUs: free for one
//     displaced input, +1 cycle when *both* inputs are displaced;
//   - fusion into a general shift, multiply, or divide costs +1 cycle;
//   - with PenalizeAllFusions, everything displaced costs +1 (the
//     "3-input adder delay cannot be hidden" ablation).
//
//reno:hotpath
func (o *Optimizer) fusePenalty(in isa.Inst, d1, d2 bool) int {
	if o.cfg.PenalizeAllFusions {
		return 1
	}
	switch isa.ClassOf(in) {
	case isa.ClassLoad, isa.ClassStore:
		return 0
	case isa.ClassBranch, isa.ClassCall, isa.ClassReturn:
		return 0
	case isa.ClassIntMul, isa.ClassFP:
		return 1
	}
	switch in.Op {
	case isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlli, isa.OpSrli, isa.OpSrai:
		return 1
	}
	if d1 && d2 {
		return 1
	}
	return 0
}

// Commit releases the resources an instruction's retirement frees: the
// previous mapping of its destination register. Freed registers invalidate
// their integration-table tuples.
//
//reno:hotpath
func (o *Optimizer) Commit(r *Renamed) {
	if !r.HasDest {
		return
	}
	if freed := o.rc.Dec(r.OldMap.P); freed && o.it != nil {
		o.it.InvalidatePhys(r.OldMap.P)
	}
}

// Squash rolls back one renamed instruction. Records must be presented
// youngest-first (ROB walk, Section 3.4: re-order buffer immediates have
// rollback semantics).
//
//reno:hotpath
func (o *Optimizer) Squash(r *Renamed) {
	if !r.HasDest {
		return
	}
	if freed := o.rc.Dec(r.NewMap.P); freed && o.it != nil {
		o.it.InvalidatePhys(r.NewMap.P)
	}
	o.mt.RestoreEntry(r.Dest, r.OldMap)
}

// ReexecMismatch reports an integrated load whose retirement re-execution
// produced a different value than integration promised; the stale tuple is
// removed so it cannot mis-integrate again. The pipeline squashes younger
// instructions and replays.
//
//reno:hotpath
func (o *Optimizer) ReexecMismatch(r *Renamed) {
	if o.it != nil {
		o.it.InvalidateSignature(isa.OpLd, r.Inst.Imm, r.Src[0], zeroMap)
	}
}

// CheckInvariant validates reference-count consistency against the map
// table plus a caller-supplied count of in-flight holds per register.
// Tests call it after randomized rename/commit/squash sequences; the
// per-register tallies live in a reusable scratch slice, so instrumented
// runs can call it at interval granularity without allocating.
func (o *Optimizer) CheckInvariant(inflightHolds map[int]int) error {
	if err := o.rc.CheckInvariant(); err != nil {
		return err
	}
	if o.invScratch == nil {
		o.invScratch = make([]int, o.rc.Size())
	}
	want := o.invScratch
	for i := range want {
		want[i] = 0
	}
	o.mt.LiveRefsInto(want)
	// LiveRefsInto counts the zero register's architectural read path at
	// ZeroReg; the comparison below starts at p1, so that entry (and any
	// other sharing of the pinned zero home) is ignored exactly as before.
	for p, n := range inflightHolds {
		want[p] += n
	}
	for p := 1; p < o.rc.Size(); p++ {
		if got, exp := o.rc.Count(p), want[p]; got != exp {
			return fmt.Errorf("reno: p%d count=%d want=%d", p, got, exp)
		}
	}
	return nil
}
