package pipeline

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"reno/internal/bpred"
	"reno/internal/cache"
	"reno/internal/cpa"
	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/refcount"
	"reno/internal/reno"
	"reno/internal/storesets"
)

// never marks a not-yet-known event time / absent sequence number. It is
// the largest uint64, so wakeAt[p] > cycle also holds for a register whose
// wake-up is not yet known.
const never = ^uint64(0)

// entry states.
const (
	stFetched uint8 = iota // in the fetch queue, pre-rename
	stWaiting              // renamed, in the issue queue
	stIssued               // executing/executed (complete when CompC <= now);
	//                        eliminated instructions enter this state at rename
)

// entry is one in-flight instruction, built in its ring slot at fetch. The
// embedded trip is what one trip through the pipeline sets, and every
// fetch zeroes it. The fields after it belong to the dynamic instruction
// and survive a squash: its replay refetches the entry in place (see
// squashFrom), so they are never copied.
type entry struct {
	trip

	// ren is the elimination engine's decision (nil until the entry first
	// renames), pulled exactly once per dynamic instruction and reused by
	// its replays: a record in the engine's window, which outlives the
	// instruction (see internal/elim). The pipeline never writes it.
	// minCommitted is the engine's commit floor; rename stalls until this
	// core has committed that many instructions.
	ren          *reno.Renamed
	minCommitted uint64
	bypassFailed bool // see misBypass

	dyn emu.Dyn
}

// trip is an entry's state from its latest fetch. Fields issue reads come
// first.
type trip struct {
	state        uint8
	port         uint8 // portOf(dyn.Facts.Class())
	isLoad       bool
	isStore      bool
	hasSS        bool // ssConstraint is set
	addrDone     bool // store: address resolved
	forwarded    bool // load: forwarded from fwdStore
	mispredicted bool
	// iqHeld marks a store whose issue ended in an order-violation
	// squash. issueStage returns before such a store releases its
	// issue-queue slot, and its commit does not release it either: only a
	// squash of the store does.
	iqHeld bool

	// CPA constraint provenance.
	fetchBound cpa.BoundKind
	issueBound cpa.BoundKind
	memLevel   uint8 // load: cpa.BLoad or cpa.BMem once issued

	seq           uint64
	renameC       uint64
	issueC        uint64
	compC         uint64
	issueBoundSeq uint64

	fetchC        uint64
	fetchBoundSeq uint64
	dataP         int    // store data physical register
	fwdStore      uint64 // load: seq of the forwarding store
	ssConstraint  uint64 // load: seq of the store-set constraining store
}

// misBypass reports whether e is a load judged a stale bypass
// (reno.Renamed.MisBypass) on its first trip, which models the bogus
// integration; its replay after the failed re-execution is conventional.
//
//reno:hotpath
func misBypass(e *entry) bool { return e.ren.MisBypass && !e.bypassFailed }

// Result summarizes one simulation.
type Result struct {
	Config Config

	// StopReason records why the simulation ended: "" (instruction stream
	// drained), "max-insts" (the feed's budget committed), "cycle-budget"
	// (RunOptions.MaxCycles reached), or "canceled" (context done; the
	// result is a partial snapshot).
	StopReason string

	Cycles uint64
	Insts  uint64 // committed instructions
	IPC    float64

	Reno reno.Stats

	// Elimination percentages (of committed instructions), stacked as in
	// Figure 8: moves, folded additions, eliminated loads, integrated ALU.
	ElimME, ElimCF, ElimLoads, ElimALU float64
	ElimTotal                          float64

	BranchAccuracy float64
	Mispredicts    uint64

	L1DMissRate float64
	L2MissRate  float64

	OrderViolations uint64
	ReexecFails     uint64
	Replays         uint64

	// Resource telemetry.
	MaxPregsUsed       int
	AvgIQOcc           float64
	AvgPregsInUse      float64
	StorePortConflicts uint64
	FetchStallCycles   uint64
	RenameStallPregs   uint64

	// IT telemetry (E9).
	ITLookups, ITInserts, ITHits uint64

	// Critical path breakdown (nil unless RunOptions.CPAChunk was set).
	// From Run it holds the totals (Breakdown, Chunks, PathLen) only: the
	// record window is gone once the run ends.
	CPA *cpa.Analyzer
}

// detached returns a copy of r that shares no memory with the simulator
// that produced it.
func (r *Result) detached() *Result {
	out := *r
	if r.CPA != nil {
		out.CPA = r.CPA.Totals()
	}
	return &out
}

// SetEngineStats copies the elimination engine's end-of-run statistics
// into r: the optimizer's rename-time tallies, peak physical-register use
// and the integration-table counters.
func (r *Result) SetEngineStats(eng *elim.Engine) {
	o := eng.Optimizer()
	r.Reno = o.Stats
	r.MaxPregsUsed = o.RefCounts().MaxInUse
	if t := o.IT(); t != nil {
		r.ITLookups, r.ITInserts, r.ITHits = t.Lookups, t.Inserts, t.Hits
	}
}

// Derive computes IPC and the elimination percentages of committed
// instructions from Insts, Cycles and Reno.Eliminated.
func (r *Result) Derive() {
	if r.Insts == 0 {
		return
	}
	n := float64(r.Insts)
	if r.Cycles > 0 {
		r.IPC = n / float64(r.Cycles)
	}
	r.ElimME = 100 * float64(r.Reno.Eliminated[reno.KindME]) / n
	r.ElimCF = 100 * float64(r.Reno.Eliminated[reno.KindCF]) / n
	r.ElimLoads = 100 * float64(r.Reno.Eliminated[reno.KindCSELoad]+r.Reno.Eliminated[reno.KindRALoad]) / n
	r.ElimALU = 100 * float64(r.Reno.Eliminated[reno.KindCSEALU]) / n
	r.ElimTotal = r.ElimME + r.ElimCF + r.ElimLoads + r.ElimALU
}

// Sim is one pipeline simulation instance.
type Sim struct {
	cfg Config

	eng *elim.Engine
	rc  *refcount.Table // the engine's table, cached for the per-cycle occupancy sample
	bp  bpred.Predictor
	mem cache.Hierarchy
	ss  storesets.Predictor

	// next fills in the next dynamic instruction; done latches the end of
	// the stream. refetch counts the ring slots just past the fetch queue
	// whose squashed instructions wait to be refetched in place.
	next    func(*emu.Dyn) bool
	done    bool
	refetch int
	cycle   uint64
	seqNext uint64

	// rob is one fixed ring holding the reorder buffer, robCount entries
	// from robHead, followed directly by the fetch queue, fqLen entries,
	// and the refetch slots. Fetch builds each entry in its ring slot and
	// rename admits the fetch queue's head by moving the boundary, so an
	// entry is never copied between the two. Its length is ROBSize+fqCap rounded up to a
	// multiple of 64, the issue queue's bitset word.
	rob      []entry
	robHead  int
	robCount int
	fqLen    int

	iq     issueQueue
	iqUsed int // issue-queue occupancy: stWaiting entries plus iqHeld stores

	lqUsed int
	sqUsed int
	// stq holds the in-flight stores' ring indices, oldest first: sqUsed
	// of them from stqHead, in a power-of-two ring. Store-to-load
	// forwarding searches it instead of the whole ROB.
	stq     []int32
	stqHead int

	wakeAt    []uint64 // per preg: cycle its value can feed a dependent's issue
	writerSeq []uint64 // per preg: seq of the producing instruction

	committed    uint64
	budget       uint64 // the feed's timed-instruction budget (0 = none); see Run
	lastCommitC  uint64
	portFreeAt   uint64 // store-retirement port booking (stores)
	reexecFreeAt uint64 // integrated-load re-execution booking (load-port bandwidth)

	// Front-end control.
	redirectUntil uint64
	blockingSeq   uint64 // seq of the unresolved mispredicted branch (never if none)
	// pendingCause tags the first instruction fetched after a redirect
	// with the constraint that caused it (CPA edge).
	pendingCauseKind cpa.BoundKind
	pendingCauseSeq  uint64
	lastFetchC       uint64

	// Window backpressure provenance: when rename stalls on a full
	// resource, the in-flight instruction whose progress will relieve it
	// is recorded so fetched instructions delayed by the resulting
	// fetch-queue backpressure carry the right critical-path edge.
	windowBlockSeq uint64
	windowBlocked  bool
	fqWasFull      bool

	analyzer *cpa.Analyzer
	res      Result

	iqOccSum, pregSum uint64

	// elimCommit tallies eliminated instructions per Kind at commit. The
	// engine counts at decision time and runs ahead of retirement, so under
	// a cycle budget or cancellation its totals cover work that never
	// committed; the commit tally is exact for every stop reason and is
	// what Result.Reno.Eliminated reports.
	elimCommit [reno.NumKinds]uint64

	// engErr latches a fatal elimination-engine error (physical register
	// file too small to make progress); RunContext surfaces it.
	engErr error

	// audit, which only tests set, runs after every cycle.
	audit func(*Sim)

	// ssDead is the store-set squash predicate, created once in New so
	// squashes allocate no closure.
	squashMinSeq uint64
	ssDead       func(tag uint32) bool

	// cpaBuf is the analyzer RunContext attaches for a CPA run: a recycled
	// Sim keeps it across resets, so its record window is allocated once.
	cpaBuf cpa.Analyzer
}

// New builds a simulator for the given configuration over the dynamic
// instruction stream produced by next, which fills the record it is given
// with the next instruction and returns false when exhausted.
func New(cfg Config, next func(*emu.Dyn) bool) *Sim {
	s := &Sim{}
	s.reset(cfg, next)
	return s
}

// reset readies s to simulate cfg over next exactly as New(cfg, next)
// builds it. The predictors, the hierarchy, the engine and every buffer s
// already has are reset in place, each buffer keeping its memory when
// cfg's sizes fit in it; the rest is built.
//
// What a cycle writes sits in cache lines of its own: s holds the
// predictors and the hierarchy by value, the engine is one allocation,
// and zeroed rounds arrays up to whole lines. So two pooled
// Sims running on two cores never write to one line; while small objects
// built for two Sims lay side by side, both ran up to ~20% slower.
func (s *Sim) reset(cfg Config, next func(*emu.Dyn) bool) {
	old := *s
	*s = Sim{
		cfg: cfg, eng: old.eng, bp: old.bp, mem: old.mem, ss: old.ss,
		next:   next,
		iq:     old.iq,
		ssDead: old.ssDead, cpaBuf: old.cpaBuf,
		blockingSeq: never,
	}
	if s.eng == nil {
		s.eng = elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth)
		s.bp = *bpred.New(bpred.Default())
		s.mem = *cache.DefaultHierarchy()
		s.ss = *storesets.New(12, 64)
		s.ssDead = func(tag uint32) bool { return uint64(tag) >= s.squashMinSeq }
	} else {
		s.eng.Reset(cfg.Reno, cfg.ROBSize, cfg.RenameWidth)
		s.bp.Reset()
		s.mem.Reset()
		s.ss.Reset()
	}
	s.rc = s.eng.Optimizer().RefCounts()
	s.rob = zeroed(old.rob, (cfg.ROBSize+fqCap+63)/64*64)
	s.stq = zeroed(old.stq, pow2(cfg.SQSize))
	s.iq.reset(len(s.rob), cfg.Reno.PhysRegs)
	s.wakeAt = zeroed(old.wakeAt, cfg.Reno.PhysRegs)
	s.writerSeq = zeroed(old.writerSeq, cfg.Reno.PhysRegs)
	s.res.Config = cfg
}

// zeroed returns b resized to n zero elements, in b's array when it can
// hold them, else in a new array of whole 64-byte cache lines.
func zeroed[T any](b []T, n int) []T {
	var elem T
	perLine := max(1, 64/int(unsafe.Sizeof(elem)))
	b = slices.Grow(b[:0], (n+perLine-1)/perLine*perLine)[:n]
	clear(b)
	return b
}

// pow2 returns the least power of two >= n.
func pow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// RunOptions controls one RunContext simulation beyond the machine
// configuration. The zero value runs to completion without analysis.
type RunOptions struct {
	// MaxCycles stops the simulation once this many cycles have elapsed
	// (0 = no cycle budget). The result is a complete summary of the
	// cycles that did run, with StopReason "cycle-budget".
	MaxCycles uint64

	// CPAChunk attaches the critical-path analyzer with this chunk size
	// before timing begins (0 = no analysis).
	CPAChunk int
}

// ctxCheckInterval is how many cycles pass between context polls: rare
// enough to stay off the hot path, frequent enough that cancellation lands
// within microseconds of simulated work.
const ctxCheckInterval = 1024

// RunContext simulates until the stream drains, the budget commits, the
// cycle budget is exhausted, or ctx is done. On cancellation it returns the
// partial result accumulated so far together with ctx's error, so callers
// always get the statistics the cycles they paid for produced; all other
// stops return a nil error and stamp Result.StopReason. RunContext spawns
// no goroutines and returns promptly (within ctxCheckInterval simulated
// cycles) once ctx is canceled.
func (s *Sim) RunContext(ctx context.Context, opts RunOptions) (*Result, error) {
	if opts.CPAChunk > 0 && s.analyzer == nil {
		s.cpaBuf.Reset(opts.CPAChunk)
		s.analyzer = &s.cpaBuf
	}
	s.res.StopReason = "" // a resumed run reports its own stop
	done := ctx.Done()
	for {
		if s.done && s.refetch == 0 && s.robCount == 0 && s.fqLen == 0 {
			// A feed bounded by its budget drains here rather than at the
			// commit check below; label the stop all the same.
			if s.budget > 0 && s.committed >= s.budget {
				s.res.StopReason = "max-insts"
			}
			break
		}
		// Fetch blocked behind the last budgeted instruction never probes
		// the feed again, so the feed alone cannot end the run on time.
		if s.budget > 0 && s.committed >= s.budget {
			s.res.StopReason = "max-insts"
			break
		}
		if opts.MaxCycles > 0 && s.cycle >= opts.MaxCycles {
			s.res.StopReason = "cycle-budget"
			break
		}
		if done != nil && s.cycle%ctxCheckInterval == 0 {
			select {
			case <-done:
				s.res.StopReason = "canceled"
				return s.finish(), ctx.Err()
			default:
			}
		}
		before := s.mark()
		s.commitStage()
		s.issueStage()
		s.renameStage()
		if s.engErr != nil {
			return nil, s.engErr
		}
		s.fetchStage()
		s.iqOccSum += uint64(s.iqUsed)
		s.pregSum += uint64(s.rc.InUse())
		s.cycle++
		if s.mark().sameCounts(before) {
			s.skipIdle(before, opts.MaxCycles)
		}
		if s.audit != nil {
			s.audit(s)
		}
		// Hang detection is amortized to one multiply per ctxCheckInterval
		// cycles: a genuine livelock still trips within a rounding error of
		// where it used to, and valid runs never pay for the check.
		if s.cycle%ctxCheckInterval == 0 && s.cycle > (s.committed+1_000_000)*100 {
			return nil, fmt.Errorf("pipeline %s: no forward progress at cycle %d (%d committed)",
				s.cfg.Name, s.cycle, s.committed)
		}
	}
	return s.finish(), nil
}

// cycleMark is what a cycle can move: the four counts that change when any
// instruction is fetched, renamed, issued, committed or squashed, and the
// counters a stalled stage charges once per cycle.
type cycleMark struct {
	committed               uint64
	robCount, fqLen, iqUsed int
	fetchStalls, portStalls uint64
	renameStalls            uint64
}

//reno:hotpath
func (s *Sim) mark() cycleMark {
	return cycleMark{
		committed: s.committed, robCount: s.robCount, fqLen: s.fqLen, iqUsed: s.iqUsed,
		fetchStalls: s.res.FetchStallCycles, portStalls: s.res.StorePortConflicts,
		renameStalls: s.res.RenameStallPregs,
	}
}

// sameCounts reports whether no instruction moved between two marks.
//
//reno:hotpath
func (m cycleMark) sameCounts(o cycleMark) bool {
	return m.committed == o.committed && m.robCount == o.robCount &&
		m.fqLen == o.fqLen && m.iqUsed == o.iqUsed
}

// skipIdle runs after an idle cycle: one in which no instruction moved, so
// only time changed. Every stage stopped on a condition that holds until
// some cycle (nextEvent), and each cycle before that one would repeat the
// idle cycle exactly. skipIdle jumps s.cycle there, charging each skipped
// cycle what the idle one charged: issue-queue and register occupancy and
// any stall counter it moved (before is the mark taken before it ran). The
// jump stops at maxCycles (0 = none) and at the next multiple of
// ctxCheckInterval, so the context poll and the hang check still see every
// multiple.
//
//reno:hotpath
func (s *Sim) skipIdle(before cycleMark, maxCycles uint64) {
	t := s.nextEvent()
	if lim := (s.cycle + ctxCheckInterval - 1) / ctxCheckInterval * ctxCheckInterval; t > lim {
		t = lim
	}
	if maxCycles > 0 && t > maxCycles {
		t = maxCycles
	}
	if t <= s.cycle {
		return
	}
	k := t - s.cycle
	s.iqOccSum += k * uint64(s.iqUsed)
	s.pregSum += k * uint64(s.rc.InUse())
	s.res.FetchStallCycles += k * (s.res.FetchStallCycles - before.fetchStalls)
	s.res.StorePortConflicts += k * (s.res.StorePortConflicts - before.portStalls)
	s.res.RenameStallPregs += k * (s.res.RenameStallPregs - before.renameStalls)
	s.cycle = t
}

// nextEvent returns the first cycle after the idle cycle now = s.cycle-1 at
// which a timed condition that blocked a stage in it lifts (never if none
// did). Untimed blocks lift only when an instruction moves, and that move
// is itself preceded by one of these events: an entry blocked by a
// store-set constraint waits for the store's issue, a full window for a
// commit or issue, a full fetch queue for a rename, an unresolved
// mispredicted branch for its issue.
//
//reno:hotpath
func (s *Sim) nextEvent() uint64 {
	now := s.cycle - 1
	// Issue: the next operand wake-up, and the store data that candidate
	// loads blocked by a forwarding store wait on (never, the largest
	// value, never wins).
	t := s.iq.earliest()
	for base := 0; base < s.robCount; { // as in issueStage
		first := s.ringIdx(base)
		for b := s.iq.cand[first>>6] >> uint(first&63); b != 0; b &= b - 1 {
			off := base + bits.TrailingZeros64(b)
			if off >= s.robCount {
				break
			}
			if p := s.iq.blockP[first+off-base]; p >= 0 {
				t = min(t, s.wakeAt[p])
			}
		}
		base += 64 - first&63
	}
	// Commit: the ROB head, in commitStage's order of checks. A head not
	// yet issued waits on its issue, counted above.
	if s.robCount > 0 {
		h := s.robPos(0)
		switch {
		case h.state != stIssued:
		case h.compC > now:
			t = min(t, h.compC)
		case h.isStore && s.wakeAt[h.dataP] > now:
			t = min(t, s.wakeAt[h.dataP])
		case h.isStore:
			t = min(t, s.portFreeAt-uint64(s.cfg.RetireQueue)*uint64(s.cfg.StorePorts))
		case h.ren.Reexec || misBypass(h):
			t = min(t, s.reexecFreeAt-uint64(s.cfg.RetireQueue)*uint64(s.cfg.LoadPorts))
		default:
			return s.cycle // a committable head: not an idle cycle
		}
	}
	// Rename: the fetch-queue head still in the front-end pipe.
	if s.fqLen > 0 {
		if r := s.fqAt(0).fetchC + uint64(s.cfg.FrontLat); r > now {
			t = min(t, r)
		}
	}
	// Fetch: a redirect in progress.
	if now < s.redirectUntil {
		t = min(t, s.redirectUntil)
	}
	return t
}

func (s *Sim) finish() *Result {
	r := &s.res
	r.Cycles = s.cycle
	r.Insts = s.committed
	if s.cycle > 0 {
		r.AvgIQOcc = float64(s.iqOccSum) / float64(s.cycle)
		r.AvgPregsInUse = float64(s.pregSum) / float64(s.cycle)
	}
	// Engine stats cover every *decision*; the Eliminated tally is replaced
	// by the commit-time per-kind counts so the report is exact even when a
	// cycle budget or cancellation stopped the run mid-window.
	r.SetEngineStats(s.eng)
	r.Reno.Eliminated = s.elimCommit
	r.Derive()
	r.BranchAccuracy = s.bp.Accuracy()
	r.L1DMissRate = s.mem.L1D.MissRate()
	r.L2MissRate = s.mem.L2.MissRate()
	if s.analyzer != nil {
		s.analyzer.Flush()
		r.CPA = s.analyzer
	}
	return r
}

// ringIdx returns the ring index of offset off from the ROB head (0 =
// oldest). Offsets past robCount address the fetch queue. off is always
// < len(s.rob), so the wrap needs a compare, not a division.
//
//reno:hotpath
func (s *Sim) ringIdx(off int) int {
	if idx := s.robHead + off; idx < len(s.rob) {
		return idx
	}
	return s.robHead + off - len(s.rob)
}

// robPos returns the entry at offset off from the ROB head (0 = oldest).
//
//reno:hotpath
func (s *Sim) robPos(off int) *entry { return &s.rob[s.ringIdx(off)] }

// fqAt returns the fetch-queue entry at offset off from the queue head,
// the ring slot just past the ROB's youngest entry.
//
//reno:hotpath
func (s *Sim) fqAt(off int) *entry { return s.robPos(s.robCount + off) }

// ---------------------------------------------------------------- commit

// bookPort reserves a slot on a retirement-side cache port through the
// decoupled retirement queue; it fails only when the backlog exceeds the
// queue depth. Stores use the store-retirement port; integrated load
// re-executions use the load-port bandwidth their elimination vacated (a
// capacity-neutral reading of the paper's re-execution scheme). It is a
// method rather than a closure so the commit stage allocates nothing.
//
//reno:hotpath
func (s *Sim) bookPort(freeAt *uint64, ports int) bool {
	limit := s.cycle + uint64(s.cfg.RetireQueue)*uint64(ports)
	if *freeAt > limit {
		s.res.StorePortConflicts++
		return false
	}
	slot := *freeAt
	if slot < s.cycle {
		slot = s.cycle
	}
	*freeAt = slot + uint64(1) // one port op per port-cycle
	return true
}

//reno:hotpath
func (s *Sim) commitStage() {
	for k := 0; k < s.cfg.CommitWidth && s.robCount > 0; k++ {
		e := s.robPos(0)
		if e.state != stIssued || e.compC > s.cycle {
			return
		}
		if e.isStore {
			// Data must have arrived and the retirement queue must accept.
			if s.wakeAt[e.dataP] > s.cycle {
				return
			}
			if !s.bookPort(&s.portFreeAt, s.cfg.StorePorts) {
				return
			}
			s.mem.AccessD(e.dyn.EA*8, s.cycle, true)
			s.ss.NoteStoreRetired(e.dyn.PC, uint32(e.seq))
		}
		if e.ren.Reexec {
			// Integrated load: re-execute on the store retirement port
			// (Section 2.2: "dependence-free" re-execution, decoupled
			// through the retirement queue). The engine adjudicated the
			// value at decision time, so a surviving Reexec always
			// verifies — only the port booking and cache traffic remain.
			if !s.bookPort(&s.reexecFreeAt, s.cfg.LoadPorts) {
				return
			}
			s.mem.AccessD(e.dyn.EA*8, s.cycle, false)
		} else if misBypass(e) {
			// Engine-adjudicated stale bypass: the first trip modeled the
			// bogus integration; retirement re-execution now fails. Drop
			// this load and all younger work and replay — the recorded
			// (conventional) decision then executes it for real.
			if !s.bookPort(&s.reexecFreeAt, s.cfg.LoadPorts) {
				return
			}
			s.mem.AccessD(e.dyn.EA*8, s.cycle, false)
			s.res.ReexecFails++
			e.bypassFailed = true
			s.squashFrom(0, e.seq)
			return
		}
		s.trainBranch(e)
		if e.ren.Elim {
			s.elimCommit[e.ren.Kind]++
		}

		if s.analyzer != nil {
			bound := cpa.BoundCompletion
			if e.compC < s.lastCommitC {
				bound = cpa.BoundPrevCommit
			}
			s.analyzer.Add(cpa.Record{
				Seq:    e.seq,
				FetchC: e.fetchC, IssueC: e.issueC, CompC: e.compC, CommitC: s.cycle,
				ExecBucket: s.execBucket(e),
				Eliminated: e.ren.Elim,
				IssueBound: e.issueBound, IssueBoundSeq: e.issueBoundSeq,
				FetchBound: e.fetchBound, FetchBoundSeq: e.fetchBoundSeq,
				CommitBound: bound,
			})
		}
		s.lastCommitC = s.cycle
		if e.isLoad {
			s.lqUsed--
		}
		if e.isStore {
			s.sqUsed--
			s.stqHead = (s.stqHead + 1) & (len(s.stq) - 1)
		}
		if s.robHead++; s.robHead == len(s.rob) {
			s.robHead = 0
		}
		s.robCount--
		s.committed++
	}
}

//reno:hotpath
func (s *Sim) trainBranch(e *entry) {
	switch e.dyn.Facts.Class() {
	case isa.ClassBranch:
		switch e.dyn.Inst.Op {
		case isa.OpJmp:
			// Direct unconditional: always predicted exactly.
		case isa.OpJr:
			s.bp.UpdateTarget(e.dyn.PC, e.dyn.NextPC)
		default:
			s.bp.UpdateDir(e.dyn.PC, e.dyn.Taken)
			if e.dyn.Taken {
				s.bp.UpdateTarget(e.dyn.PC, e.dyn.NextPC)
			}
		}
	case isa.ClassCall:
		if e.dyn.Inst.Op == isa.OpJalr {
			s.bp.UpdateTarget(e.dyn.PC, e.dyn.NextPC)
		}
	case isa.ClassReturn:
		s.bp.NoteRASOutcome(!e.mispredicted)
	}
}

//reno:hotpath
func (s *Sim) execBucket(e *entry) cpa.Bucket {
	if e.isLoad {
		return cpa.Bucket(e.memLevel)
	}
	return cpa.BALU
}

// ---------------------------------------------------------------- issue

// Issue port classes: issueStage's per-cycle budget is indexed by these.
const (
	portInt = iota
	portFP
	portLoad
	portStore
	numPorts
)

//reno:hotpath
func portOf(cls isa.Class) uint8 {
	switch cls {
	case isa.ClassLoad:
		return portLoad
	case isa.ClassStore:
		return portStore
	case isa.ClassFP:
		return portFP
	}
	return portInt
}

// issueStage selects from the issue candidates, oldest first. It walks
// the candidate bitset a word at a time from a copy of each word: during
// the walk only the visited entry's own bit changes, and a squash ends it.
// The ring's length is a multiple of 64, so a word never straddles the
// wrap.
//
//reno:hotpath
func (s *Sim) issueStage() {
	s.iq.due(s.cycle)
	total := s.cfg.IssueTotal
	free := [numPorts]int{
		portInt: s.cfg.IntALUs, portFP: s.cfg.FPUnits,
		portLoad: s.cfg.LoadPorts, portStore: s.cfg.StorePorts,
	}

	for base := 0; base < s.robCount; {
		first := s.ringIdx(base)
		for b := s.iq.cand[first>>6] >> uint(first&63); b != 0; b &= b - 1 {
			off := base + bits.TrailingZeros64(b)
			if off >= s.robCount || total == 0 {
				return
			}
			idx := first + off - base
			e := &s.rob[idx]
			if e.state != stWaiting {
				s.iq.drop(idx) // stale: the slot was reused after a squash
				continue
			}
			port := e.port
			if free[port] == 0 {
				continue
			}
			if p, operand, ok := s.ready(e, off); !ok {
				if operand {
					s.iq.sleepOn(idx, p, s.wakeAt[p])
				} else {
					s.iq.blockP[idx] = p
				}
				continue
			}
			s.iq.drop(idx)

			e.issueC = s.cycle
			e.state = stIssued
			e.compC = s.cycle + uint64(s.execLatency(e))

			if e.isLoad {
				s.issueLoad(e)
			}
			if e.isStore {
				e.addrDone = true
				if s.checkViolations(e, off) {
					e.iqHeld = true
					return // squash invalidated iteration state
				}
			}
			if e.ren.HasDest {
				w := e.compC
				if loop := uint64(s.cfg.SchedLoop); w-e.issueC < loop {
					w = e.issueC + loop
				}
				s.wakeAt[e.ren.NewMap.P] = w
				s.iq.wake(e.ren.NewMap.P, w)
			}
			if e.mispredicted && s.blockingSeq == e.seq {
				s.redirectUntil = e.compC + uint64(s.cfg.RedirectPenalty)
				s.blockingSeq = never
				s.pendingCauseKind, s.pendingCauseSeq = cpa.BoundMispredict, e.seq
			}
			s.iqUsed--
			total--
			free[port]--
		}
		base += 64 - first&63
	}
}

// issueSrcs returns how many of e's source operands gate its issue. Stores
// need only the base-address operand; data merges in the store queue
// later.
//
//reno:hotpath
func issueSrcs(e *entry) int {
	if e.isStore {
		return 1
	}
	return e.ren.NSrc
}

// enqueue admits the waiting entry e, at ring index idx, to the issue
// queue during its rename cycle. Its first check would come next cycle; an
// operand that cannot wake by then would fail it until it wakes, so e
// sleeps on that operand straight away. (The bound ready records for such
// a failure is always overwritten when e issues: the operand then arrives
// after e's earliest issue cycle.)
//
//reno:hotpath
func (s *Sim) enqueue(e *entry, idx int) {
	for i, n := 0, issueSrcs(e); i < n; i++ {
		p := e.ren.Src[i].P
		if w := s.wakeAt[p]; w > s.cycle+1 {
			s.iq.sleepOn(idx, int32(p), w)
			return
		}
	}
	s.iq.add(idx)
}

// ready decides whether an IQ entry can be selected this cycle and records
// the last-arriving constraint for the critical-path analyzer. When it
// cannot, p is the physical register whose wake-up can release it:
// operand reports that p is a source operand, which must wake first;
// otherwise p is a forwarding store's data register, or -1 for a store-set
// block, and the entry needs a check every cycle.
//
//reno:hotpath
func (s *Sim) ready(e *entry, off int) (p int32, operand, ok bool) {
	var opWake uint64
	opSrc := -1
	for i, n := 0, issueSrcs(e); i < n; i++ {
		p := e.ren.Src[i].P
		w := s.wakeAt[p]
		if w > s.cycle {
			e.issueBound = cpa.BoundProducer
			e.issueBoundSeq = s.writerSeq[p]
			return int32(p), true, false
		}
		if w > opWake {
			opWake, opSrc = w, i
		}
	}

	if e.isLoad {
		// Store-set constraint: wait until the flagged store has resolved
		// its address.
		if e.hasSS {
			if idx, found := s.findOlder(e.ssConstraint, off); found {
				se := s.robPos(idx)
				if !se.addrDone {
					e.issueBound = cpa.BoundProducer
					e.issueBoundSeq = se.seq
					return -1, false, false
				}
			}
		}
		// An older same-address store with a resolved address but unready
		// data blocks the load until it can forward.
		if se := s.olderStore(e); se != nil && s.wakeAt[se.dataP] > s.cycle {
			e.issueBound = cpa.BoundProducer
			e.issueBoundSeq = se.seq
			return int32(se.dataP), false, false
		}
	}

	// Ready: classify the wait.
	earliest := e.renameC + 1
	switch {
	case opWake > earliest:
		e.issueBound = cpa.BoundProducer
		if opSrc >= 0 {
			e.issueBoundSeq = s.writerSeq[e.ren.Src[opSrc].P]
		}
		if s.cycle > opWake {
			e.issueBound = cpa.BoundResource
		}
	case s.cycle > earliest:
		e.issueBound = cpa.BoundResource
	default:
		e.issueBound = cpa.BoundFrontend
	}
	return 0, false, true
}

// execLatency returns issue-to-result latency including fusion penalties
// from the RENO.CF cost model.
//
//reno:hotpath
func (s *Sim) execLatency(e *entry) int {
	pen := e.ren.FusePenalty
	switch e.dyn.Facts.Class() {
	case isa.ClassIntMul:
		if e.dyn.Inst.Op == isa.OpDiv {
			return s.cfg.DivLat + pen
		}
		return s.cfg.MulLat + pen
	case isa.ClassFP:
		return s.cfg.FPLat + pen
	case isa.ClassLoad, isa.ClassStore:
		return 1 + pen // address generation; issueLoad refines loads
	case isa.ClassBranch, isa.ClassCall, isa.ClassReturn:
		return s.cfg.BranchLat + pen
	case isa.ClassNop, isa.ClassHalt:
		return 1
	}
	return s.cfg.IntLat + pen
}

// issueLoad resolves a load's completion: store-queue forwarding when an
// older same-address store has its data, else the cache hierarchy.
//
//reno:hotpath
func (s *Sim) issueLoad(e *entry) {
	addrReady := e.compC
	if se := s.olderStore(e); se != nil && s.wakeAt[se.dataP] <= s.cycle {
		e.forwarded = true
		e.fwdStore = se.seq
		e.compC = addrReady + 1
		e.memLevel = uint8(cpa.BLoad)
		return
	}
	memBefore := s.mem.MemAccesses
	e.compC = s.mem.AccessD(e.dyn.EA*8, addrReady, false)
	if s.mem.MemAccesses > memBefore {
		e.memLevel = uint8(cpa.BMem)
	} else {
		e.memLevel = uint8(cpa.BLoad)
	}
}

// olderStore returns the youngest store older than the load e that has
// resolved e's address, or nil: the store e forwards from once its data is
// ready.
//
//reno:hotpath
func (s *Sim) olderStore(e *entry) *entry {
	mask := len(s.stq) - 1
	for k := s.sqUsed - 1; k >= 0; k-- {
		se := &s.rob[s.stq[(s.stqHead+k)&mask]]
		if se.seq < e.seq && se.addrDone && se.dyn.EA == e.dyn.EA {
			return se
		}
	}
	return nil
}

// checkViolations runs when a store resolves its address: a younger
// same-address load that already issued without forwarding from this store
// (or a younger one) read stale data. Reports whether a squash happened.
//
//reno:hotpath
func (s *Sim) checkViolations(st *entry, stOff int) bool {
	for i := stOff + 1; i < s.robCount; i++ {
		le := s.robPos(i)
		if !le.isLoad || le.state != stIssued || le.ren.Elim || misBypass(le) {
			continue
		}
		if le.dyn.EA != st.dyn.EA {
			continue
		}
		if le.forwarded && le.fwdStore >= st.seq {
			continue
		}
		s.res.OrderViolations++
		s.ss.Violation(le.dyn.PC, st.dyn.PC)
		s.squashFrom(i, st.seq)
		return true
	}
	return false
}

// findOlder locates the ROB offset of seq among entries older than limitOff.
//
//reno:hotpath
func (s *Sim) findOlder(seq uint64, limitOff int) (int, bool) {
	for i := limitOff - 1; i >= 0; i-- {
		e := s.robPos(i)
		if e.seq == seq {
			return i, true
		}
		if e.seq < seq {
			return 0, false
		}
	}
	return 0, false
}

// squashFrom drops ROB offsets [from, robCount) and the fetch queue and
// replays them through fetch with the rename decisions they already hold.
// causeSeq identifies the resolving instruction for CPA accounting.
//
// The dropped entries stay in their ring slots, which are the slots fetch
// fills next, in order, ahead of any an earlier squash left waiting; fetch
// refetches each in place with the decision it holds. Rename state is
// owned by the engine and never rolled back: a replay reuses its mappings.
//
//reno:hotpath
func (s *Sim) squashFrom(from int, causeSeq uint64) {
	if from >= s.robCount {
		return
	}
	s.res.Replays++
	minSeq := s.robPos(from).seq
	// Fetch-queue entries, not yet renamed, hold no resources.
	for i := from; i < s.robCount; i++ {
		e := s.robPos(i)
		if e.state == stWaiting || e.iqHeld {
			s.iqUsed--
		}
		if e.isLoad {
			s.lqUsed--
		}
		if e.isStore {
			s.sqUsed--
		}
	}
	s.refetch += s.robCount + s.fqLen - from
	s.robCount, s.fqLen = from, 0

	s.squashMinSeq = minSeq
	s.ss.Squash(s.ssDead)
	s.redirectUntil = s.cycle + uint64(s.cfg.RedirectPenalty)
	s.pendingCauseKind, s.pendingCauseSeq = cpa.BoundReplay, causeSeq
	if s.blockingSeq != never && s.blockingSeq >= minSeq {
		s.blockingSeq = never
	}
}

// ---------------------------------------------------------------- rename

// Window-block predicates for blockOn, package-level so renameStage creates
// no closures on its per-cycle path.
var (
	blockAny     = func(*entry) bool { return true } // ROB head
	blockWaiting = func(e *entry) bool { return e.state == stWaiting }
	blockLoad    = func(e *entry) bool { return e.isLoad }
	blockStore   = func(e *entry) bool { return e.isStore }
)

// blockOn records the oldest in-flight instruction matching the predicate as
// the reliever of the current window stall (critical-path provenance).
//
//reno:hotpath
func (s *Sim) blockOn(oldest func(*entry) bool) {
	s.windowBlocked = true
	s.windowBlockSeq = s.robPos(0).seq
	for i := 0; i < s.robCount; i++ {
		if e := s.robPos(i); oldest(e) {
			s.windowBlockSeq = e.seq
			return
		}
	}
}

//reno:hotpath
func (s *Sim) renameStage() {
	width := s.cfg.RenameWidth
	iqLeft := s.cfg.IQSize - s.iqUsed
	lqLeft := s.cfg.LQSize - s.lqUsed
	sqLeft := s.cfg.SQSize - s.sqUsed
	robLeft := s.cfg.ROBSize - s.robCount

	s.windowBlocked = false
	for n := 0; n < width && s.fqLen > 0; n++ {
		// Renaming the fetch queue's head admits it to the ROB in place:
		// the ROB/fetch-queue boundary moves past it.
		e := s.fqAt(0)
		if e.fetchC+uint64(s.cfg.FrontLat) > s.cycle {
			break
		}
		// Conservative admission: assume an IQ slot is needed (an
		// eliminated instruction will simply not consume its slot).
		if robLeft == 0 {
			if s.robCount > 0 {
				s.blockOn(blockAny)
			}
			break
		}
		if iqLeft == 0 {
			s.blockOn(blockWaiting)
			break
		}
		cls := e.dyn.Facts.Class()
		if cls == isa.ClassLoad && lqLeft == 0 {
			s.blockOn(blockLoad)
			break
		}
		if cls == isa.ClassStore && sqLeft == 0 {
			s.blockOn(blockStore)
			break
		}

		// Pull the elimination-engine decision — exactly once per dynamic
		// instruction; a replay still holds it.
		if e.ren == nil {
			r, mc, err := s.eng.Next(&e.dyn)
			if err != nil {
				s.engErr = err
				return
			}
			e.ren, e.minCommitted = r, mc
		}
		// The engine may have force-committed past this core's retirement
		// point to free physical registers; renaming before the core
		// catches up would let a recycled register's wakeup be overwritten
		// under a live reader. Stall — this is the machine's
		// physical-register structural stall.
		if s.committed < e.minCommitted {
			s.res.RenameStallPregs++
			if s.robCount > 0 {
				// The ROB head's commit frees its displaced register.
				s.windowBlocked = true
				s.windowBlockSeq = s.robPos(0).seq
			}
			break
		}

		if cls == isa.ClassLoad {
			lqLeft--
		}
		if cls == isa.ClassStore {
			sqLeft--
		}
		robLeft--
		iqLeft--

		e.renameC = s.cycle
		e.isLoad = cls == isa.ClassLoad
		e.isStore = cls == isa.ClassStore

		if e.ren.HasDest && !e.ren.Elim {
			if misBypass(e) {
				// Stand-in for the bogus integration: dependents see the
				// (wrong) value as already available, exactly as they
				// would have through the shared mapping.
				s.wakeAt[e.ren.NewMap.P] = s.cycle
			} else {
				s.wakeAt[e.ren.NewMap.P] = never
			}
			s.writerSeq[e.ren.NewMap.P] = e.seq
		}

		if e.ren.Elim || misBypass(e) {
			// Collapsed out of the execution core: no IQ entry, no issue,
			// no execution. Consumers wake on the shared register's
			// original producer (wakeAt untouched): the dataflow collapse.
			// A mis-bypassed load takes this path on its first trip and
			// fails retirement re-execution in commitStage.
			e.state = stIssued
			e.issueC = s.cycle
			e.compC = s.cycle
		} else {
			e.state = stWaiting
			s.iqUsed++
			s.enqueue(e, s.ringIdx(s.robCount))
		}

		if e.isLoad {
			s.lqUsed++
			if tag, constrained := s.ss.LookupLoad(e.dyn.PC); constrained {
				e.hasSS = true
				e.ssConstraint = uint64(tag)
			}
		}
		if e.isStore {
			s.stq[(s.stqHead+s.sqUsed)&(len(s.stq)-1)] = int32(s.ringIdx(s.robCount))
			s.sqUsed++
			e.dataP = e.ren.Src[1].P
			s.ss.NoteStoreFetched(e.dyn.PC, uint32(e.seq))
		}

		s.robCount++
		s.fqLen--
	}
}

// ---------------------------------------------------------------- fetch

// fqCap is the fetch buffer capacity between fetch and rename.
const fqCap = 32

//reno:hotpath
func (s *Sim) fetchStage() {
	if s.cycle < s.redirectUntil {
		s.res.FetchStallCycles++
		return
	}
	if s.blockingSeq != never {
		s.res.FetchStallCycles++
		return // an unresolved mispredicted branch blocks the front end
	}
	takenSeen := 0
	lastBlock := never
	groupReady := s.cycle
	for w := 0; w < s.cfg.FetchWidth; w++ {
		if s.fqLen >= fqCap {
			s.fqWasFull = true
			break
		}
		e := s.fqAt(s.fqLen)
		replayed := s.refetch > 0
		if replayed {
			// A squash left this slot's instruction in place.
			s.refetch--
			e.trip = trip{}
		} else {
			if s.done {
				break
			}
			*e = entry{}
			if !s.next(&e.dyn) {
				s.done = true
				break
			}
		}
		d := &e.dyn
		// One I$ access per new 32-byte block.
		if blk := d.PC / 8; blk != lastBlock {
			lastBlock = blk
			done := s.mem.AccessI(d.PC*4, s.cycle)
			if avail := done - 1; avail > groupReady {
				groupReady = avail
			}
		}
		fetchC := groupReady
		if fetchC < s.lastFetchC {
			fetchC = s.lastFetchC
		}
		s.lastFetchC = fetchC

		e.state, e.seq = stFetched, s.seqNext
		e.fetchC, e.compC = fetchC, never
		e.fetchBound = cpa.BoundPrevFetch
		s.seqNext++
		if s.pendingCauseKind != cpa.BoundNone {
			e.fetchBound, e.fetchBoundSeq = s.pendingCauseKind, s.pendingCauseSeq
			s.pendingCauseKind, s.pendingCauseSeq = cpa.BoundNone, 0
		} else if s.fqWasFull && s.windowBlocked {
			// The front end was recently backpressured by a full window
			// resource; charge this fetch to that stall's reliever.
			e.fetchBound, e.fetchBoundSeq = cpa.BoundWindow, s.windowBlockSeq
			s.fqWasFull = false
		}

		cls := d.Facts.Class()
		e.port = portOf(cls)
		isCT := cls == isa.ClassBranch || cls == isa.ClassCall || cls == isa.ClassReturn
		if isCT && !replayed {
			// Replayed instructions re-fetch down a known-correct path;
			// re-predicting them would double-count mispredictions and
			// corrupt the RAS.
			pred := s.bp.Predict(d.PC, d.Inst, cls)
			if pred != d.NextPC {
				e.mispredicted = true
				s.res.Mispredicts++
			}
		}
		s.fqLen++
		if e.mispredicted {
			s.blockingSeq = e.seq
			break
		}
		if isCT && d.Taken {
			takenSeen++
			if takenSeen >= 2 {
				break // may fetch past only one taken branch per cycle
			}
		}
	}
}
