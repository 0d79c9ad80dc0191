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
// resulting commit floor as Decision.MinCommitted; the detailed pipeline
// stalls rename until its own commit count reaches that floor, reproducing
// the structural stall.
//
// Speculative load bypassing is judged by the optimizer itself when it
// renames the load (reno.Renamed.MisBypass). A verdict reached on an attempt
// that then ran out of registers is kept across the force-commit retry.
package elim

import (
	"fmt"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/reno"
)

// Decision is the engine's verdict for one dynamic instruction.
type Decision struct {
	// Ren is the complete rename record (shared with the pipeline ROB).
	Ren reno.Renamed

	// MinCommitted is the engine's commit count after this decision: the
	// number of older instructions whose resources this decision may have
	// reclaimed. A timing model must commit at least this many instructions
	// before acting on the decision (the detailed pipeline's rename stall
	// on physical-register exhaustion).
	MinCommitted uint64
}

// Engine makes all RENO elimination decisions for one simulated program.
type Engine struct {
	opt *reno.Optimizer

	width int // fixed rename group width
	mask  uint32
	idx   uint64 // instructions decided

	// win is the decision window: a ring of at most winSize (= ROBSize)
	// records whose commit-time resources are still held.
	win       []reno.Renamed
	winHead   int
	winCount  int
	committed uint64
}

// New builds an engine for one program run. robSize bounds the decision
// window and renameWidth fixes the group alignment; both must match the
// timing model consuming the decisions for cross-backend equivalence.
func New(cfg reno.Config, robSize, renameWidth int) *Engine {
	if robSize < 1 || renameWidth < 1 {
		panic(fmt.Sprintf("elim: invalid window %d / width %d", robSize, renameWidth))
	}
	return &Engine{
		opt:   reno.New(cfg),
		width: renameWidth,
		win:   make([]reno.Renamed, robSize),
	}
}

// Optimizer exposes the underlying RENO optimizer (stats, IT, refcounts).
func (e *Engine) Optimizer() *reno.Optimizer { return e.opt }

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

// Next decides instruction d. Instructions must be presented exactly once
// each, in program order (the committed stream); timing-model replays reuse
// the record returned here rather than calling Next again.
//
//reno:hotpath
func (e *Engine) Next(d emu.Dyn) (Decision, error) {
	if e.idx%uint64(e.width) == 0 {
		e.mask = 0 // fixed group boundary: the in-group restriction resets
	}
	if e.winCount == len(e.win) {
		e.commitOldest()
	}

	result := d.Result
	if d.Inst.Op == isa.OpSt {
		result = d.SrcVals[1] // stored data value
	}
	gi := reno.GroupInst{Inst: d.Inst, Result: result}
	r, ok := e.opt.RenameOne(gi, e.mask)
	misBypass := r.MisBypass
	for !ok {
		// Physical register file exhausted: force-commit older decisions
		// until an allocation succeeds, publishing the commit floor.
		if e.winCount == 0 {
			//lint:ignore hotalloc fatal-error path, taken at most once per run
			return Decision{}, fmt.Errorf("elim: %d physical registers exhausted with no in-flight work at instruction %d",
				e.opt.Config().PhysRegs, e.idx)
		}
		e.commitOldest()
		r, ok = e.opt.RenameOne(gi, e.mask)
		// A failed attempt keeps its verdict: the stale tuple it
		// invalidated cannot be judged again on the retry.
		misBypass = misBypass || r.MisBypass
	}
	r.MisBypass = misBypass
	e.mask = reno.UpdateGroupMask(e.mask, &r)

	tail := e.winHead + e.winCount
	if tail >= len(e.win) {
		tail -= len(e.win)
	}
	e.win[tail] = r
	e.winCount++
	e.idx++

	return Decision{Ren: r, MinCommitted: e.committed}, nil
}
