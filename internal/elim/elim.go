// Package elim is the shared RENO elimination engine: it drives the
// internal/reno optimizer over the committed dynamic instruction stream in
// strict program order and produces, for every instruction, the rename
// decision (eliminated or conventional, with the full Renamed record) that
// every simulation backend consumes.
//
// Hoisting the decision out of the detailed pipeline is what makes
// multi-fidelity simulation provable: the functional backend runs the same
// engine over the same stream, and the detailed pipeline *replays* the
// engine's recorded decisions instead of re-deciding under timing pressure
// (squash replays reuse the original record), so both backends report
// identical elimination counts by construction — the invariant the
// differential harness in internal/backend/difftest pins.
//
// # Decision discipline
//
// The engine renames in fixed RenameWidth-aligned groups (the same-group
// dependence restriction of Section 3.2 resets at each group boundary) and
// retires decisions through a window of ROBSize records: before deciding
// instruction k it commits record k-ROBSize, mirroring the most conservative
// schedule a ROB-bounded core can achieve. The detailed pipeline always
// renames instruction k with at least k-ROBSize+1 instructions committed
// (it holds a free ROB slot at rename), so the engine's commit pointer never
// passes the pipeline's and registers freed by the engine have no live
// readers in flight. When the physical register file is exhausted the engine
// force-commits older records until an allocation succeeds and publishes the
// resulting commit floor (Next's minCommitted); the detailed pipeline
// stalls rename until its own commit count reaches that floor, reproducing
// the structural stall.
//
// A record, built in place in the window, stays unchanged through the next
// ROBSize-1 Next calls, force-commits included (a commit only releases the
// register the record displaced); the call after those rebuilds it. So the
// pipeline's in-flight entries point at their records instead of copying
// them: instruction k has committed before decision k+ROBSize.
//
// Speculative load bypassing is judged by the optimizer itself when it
// renames the load (reno.Renamed.MisBypass). A verdict reached on an attempt
// that then ran out of registers is kept across the force-commit retry.
package elim

import (
	"fmt"
	"slices"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/reno"
)

// Engine makes all RENO elimination decisions for one simulated program.
// It holds its optimizer by value: one allocation for the state every
// decision updates.
type Engine struct {
	opt reno.Optimizer

	width int    // fixed rename group width
	slot  int    // position of the next instruction in its group
	mask  uint32 // same-group elimination mask
	idx   uint64 // instructions decided

	// win is the decision window: a ring of at most winSize (= ROBSize)
	// records whose commit-time resources are still held.
	win       []reno.Renamed
	winHead   int
	winCount  int
	committed uint64
}

// New builds an engine for a program run; Reset readies it for the next
// one, which is how the detailed pipeline and the functional backend
// recycle their engines. robSize bounds the decision window and
// renameWidth fixes the group alignment; both must match the timing model
// consuming the decisions for cross-backend equivalence.
func New(cfg reno.Config, robSize, renameWidth int) *Engine {
	e := &Engine{}
	e.Reset(cfg, robSize, renameWidth)
	return e
}

// Reset readies e for a new program run, leaving it as New builds it for
// the same arguments. The optimizer is reset in place (see
// reno.Optimizer.Reset) and the decision window keeps its memory when it
// can hold robSize records, so a recycled engine allocates only what it
// lacks or has outgrown.
func (e *Engine) Reset(cfg reno.Config, robSize, renameWidth int) {
	if robSize < 1 || renameWidth < 1 {
		panic(fmt.Sprintf("elim: invalid window %d / width %d", robSize, renameWidth))
	}
	e.opt.Reset(cfg)
	win := slices.Grow(e.win[:0], robSize)[:robSize]
	clear(win)
	*e = Engine{opt: e.opt, width: renameWidth, win: win}
}

// Optimizer exposes the underlying RENO optimizer (stats, IT, refcounts).
func (e *Engine) Optimizer() *reno.Optimizer { return &e.opt }

// Stats returns the optimizer's rename-time statistics. Over a fully
// committed stream these equal the per-backend commit tallies exactly.
func (e *Engine) Stats() reno.Stats { return e.opt.Stats }

// commitOldest retires the oldest window record, releasing the physical
// register its displacement holds.
//
//reno:hotpath
func (e *Engine) commitOldest() {
	r := &e.win[e.winHead]
	e.opt.Commit(r)
	e.winHead++
	if e.winHead == len(e.win) {
		e.winHead = 0
	}
	e.winCount--
	e.committed++
}

// Next decides instruction d and returns its rename record: a pointer into
// the engine's window, unchanged through the next ROBSize-1 calls (see the
// package doc). The detailed pipeline keeps the pointer in its in-flight
// entry; the functional backend reads nothing. minCommitted is the
// engine's commit count after this decision: the number of older
// instructions whose resources it may have reclaimed. A timing model must
// commit at least that many instructions before acting on the decision
// (the detailed pipeline's rename stall on physical-register exhaustion).
// Instructions must be presented exactly once each, in program order (the
// committed stream); timing-model replays reuse the record rather than
// calling Next again.
//
//reno:hotpath
func (e *Engine) Next(d *emu.Dyn) (r *reno.Renamed, minCommitted uint64, err error) {
	if !d.Facts.Decoded() {
		//lint:ignore hotalloc fatal-error path: a record built without isa.Predecode
		return nil, 0, fmt.Errorf("elim: instruction %v at pc %d was not predecoded", d.Inst, d.PC)
	}
	if e.slot == 0 {
		e.mask = 0 // fixed group boundary: the in-group restriction resets
	}
	if e.winCount == len(e.win) {
		e.commitOldest()
	}

	result := d.Result
	if d.Inst.Op == isa.OpSt {
		result = d.SrcVals[1] // stored data value
	}
	// The tail slot lies outside the live window, and force-commits only
	// retire records from the head, so it stays free across retries.
	tail := e.winHead + e.winCount
	if tail >= len(e.win) {
		tail -= len(e.win)
	}
	r = &e.win[tail]
	ok := e.opt.RenameOneInto(&d.Inst, d.Facts, result, r, e.mask)
	misBypass := r.MisBypass
	for !ok {
		// Physical register file exhausted: force-commit older decisions
		// until an allocation succeeds, publishing the commit floor.
		if e.winCount == 0 {
			//lint:ignore hotalloc fatal-error path, taken at most once per run
			return nil, 0, fmt.Errorf("elim: %d physical registers exhausted with no in-flight work at instruction %d",
				e.opt.Config().PhysRegs, e.idx)
		}
		e.commitOldest()
		ok = e.opt.RenameOneInto(&d.Inst, d.Facts, result, r, e.mask)
		// A failed attempt keeps its verdict: the stale tuple it
		// invalidated cannot be judged again on the retry.
		misBypass = misBypass || r.MisBypass
	}
	r.MisBypass = misBypass
	e.mask = reno.UpdateGroupMask(e.mask, r)
	e.winCount++
	e.idx++
	if e.slot++; e.slot == e.width {
		e.slot = 0
	}
	return r, e.committed, nil
}
