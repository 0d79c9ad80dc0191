package pipeline

import (
	"context"
	"fmt"

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

// never marks a not-yet-known event time / absent sequence number.
const never = ^uint64(0)

// entry states.
const (
	stFetched uint8 = iota // in the fetch queue, pre-rename
	stWaiting              // renamed, in the issue queue
	stIssued               // executing/executed (complete when CompC <= now);
	//                        eliminated instructions enter this state at rename
)

type entry struct {
	dyn emu.Dyn
	ren reno.Renamed
	seq uint64

	// Elimination-engine decision state. renValid marks that ren (and
	// misBypass/minCommitted) hold the engine's decision — pulled exactly
	// once per dynamic instruction and carried through squash replays, so
	// the engine is never consulted twice. misBypass marks a load whose
	// speculative integration the engine adjudicated as a value mismatch:
	// its first trip through the pipeline models the bogus integration and
	// fails at retirement. minCommitted is the engine's commit floor; rename
	// stalls until this core has committed that many instructions.
	renValid     bool
	misBypass    bool
	minCommitted uint64

	fetchC  uint64
	renameC uint64
	issueC  uint64
	compC   uint64

	state   uint8
	inIQ    bool
	isLoad  bool
	isStore bool

	// Store bookkeeping.
	addrDone bool
	dataP    int // store data physical register

	// Load bookkeeping.
	forwarded    bool
	fwdStore     uint64 // seq of the forwarding store
	ssConstraint uint64 // seq of the store-set constraining store
	hasSS        bool
	memLevel     cpa.Bucket // BLoad or BMem

	mispredicted bool
	replayed     bool

	// CPA constraint provenance.
	fetchBound    cpa.BoundKind
	fetchBoundSeq uint64
	issueBound    cpa.BoundKind
	issueBoundSeq uint64
}

// Result summarizes one simulation.
type Result struct {
	Config Config

	// StopReason records why the simulation ended: "" (instruction stream
	// drained), "max-insts" (Config.MaxInsts reached), "cycle-budget"
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

	// Critical path breakdown (nil unless AttachCPA was called).
	CPA *cpa.Analyzer
}

// Sim is one pipeline simulation instance.
type Sim struct {
	cfg Config

	eng *elim.Engine
	rc  *refcount.Table // the engine's table, cached for the per-cycle occupancy sample
	bp  *bpred.Predictor
	mem *cache.Hierarchy
	ss  *storesets.Predictor

	src     *stream
	cycle   uint64
	seqNext uint64

	rob      []entry
	robHead  int
	robCount int

	// fq is the fetch queue (front end to rename), a fixed-capacity ring:
	// fqLen entries starting at fqHead. A ring rather than an appended
	// slice keeps the steady-state cycle loop allocation-free.
	fq     []entry // len fqCap
	fqHead int
	fqLen  int

	iqUsed int
	lqUsed int
	sqUsed int

	wakeAt    []uint64 // per preg: cycle its value can feed a dependent's issue
	writerSeq []uint64 // per preg: seq of the producing instruction

	committed    uint64
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

	// Reusable hot-path scratch. replayBuf backs squashFrom's replay batch
	// (capacity ROBSize+fqCap, the in-flight maximum, so it never regrows),
	// and ssDead is the store-set squash predicate created once in New so
	// squashes allocate no closure.
	replayBuf    []replayRec
	squashMinSeq uint64
	ssDead       func(tag uint32) bool
}

// New builds a simulator for the given configuration over the dynamic
// instruction stream produced by next (which returns false when exhausted).
func New(cfg Config, next func() (emu.Dyn, bool)) *Sim {
	s := &Sim{
		cfg: cfg,
		eng: elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth),
		bp:  bpred.New(bpred.Default()),
		mem: cache.DefaultHierarchy(),
		ss:  storesets.New(12, 64),
		src: &stream{next: next},
	}
	s.rc = s.eng.Optimizer().RefCounts()
	s.rob = make([]entry, cfg.ROBSize)
	s.fq = make([]entry, fqCap)
	s.wakeAt = make([]uint64, cfg.Reno.PhysRegs)
	s.writerSeq = make([]uint64, cfg.Reno.PhysRegs)
	s.replayBuf = make([]replayRec, 0, cfg.ROBSize+fqCap)
	s.ssDead = func(tag uint32) bool { return uint64(tag) >= s.squashMinSeq }
	s.blockingSeq = never
	s.res.Config = cfg
	return s
}

// AttachCPA enables critical-path analysis with the given chunk size.
func (s *Sim) AttachCPA(chunk int) { s.analyzer = cpa.New(chunk) }

// Optimizer exposes the elimination engine's RENO optimizer (tests).
func (s *Sim) Optimizer() *reno.Optimizer { return s.eng.Optimizer() }

// Engine exposes the elimination engine (cross-backend equivalence tests).
func (s *Sim) Engine() *elim.Engine { return s.eng }

// replayRec is one replayed instruction: the dynamic record plus the
// elimination-engine decision it already pulled, so squash replays never
// consult the engine a second time.
type replayRec struct {
	dyn          emu.Dyn
	ren          reno.Renamed
	renValid     bool
	misBypass    bool
	minCommitted uint64
}

// stream feeds dynamic instructions with pushback for squash replay.
type stream struct {
	next   func() (emu.Dyn, bool)
	replay []replayRec // stack: last element delivered first
	done   bool
}

func (st *stream) pull() (r replayRec, replayed, ok bool) {
	if n := len(st.replay); n > 0 {
		r := st.replay[n-1]
		st.replay = st.replay[:n-1]
		return r, true, true
	}
	if st.done {
		return replayRec{}, false, false
	}
	d, ok := st.next()
	if !ok {
		st.done = true
	}
	return replayRec{dyn: d}, false, ok
}

func (st *stream) pushFront(rs []replayRec) {
	for i := len(rs) - 1; i >= 0; i-- {
		st.replay = append(st.replay, rs[i])
	}
}

func (st *stream) exhausted() bool { return st.done && len(st.replay) == 0 }

// RunOptions controls one RunContext simulation beyond the machine
// configuration: execution bounds and progress observation. The zero value
// reproduces Run's run-to-completion contract exactly.
type RunOptions struct {
	// MaxCycles stops the simulation once this many cycles have elapsed
	// (0 = no cycle budget). The result is a complete summary of the
	// cycles that did run, with StopReason "cycle-budget".
	MaxCycles uint64

	// ObserveEvery invokes Observer each time this many further
	// instructions have committed (0 = never). Observation is passive: it
	// never perturbs simulation outcomes, so observed and unobserved runs
	// of the same program are cycle-identical.
	ObserveEvery uint64

	// Observer receives interval snapshots. It is called synchronously on
	// the simulation goroutine; a slow observer slows the run, nothing
	// else.
	Observer func(IntervalStats)

	// CPAChunk attaches the critical-path analyzer with this chunk size
	// before timing begins (0 = no analysis). It is the options-form of
	// AttachCPA, so context-aware callers need no separate setup step.
	CPAChunk int

	// FeedObserver, when non-nil, receives every dynamic instruction fed
	// into the timing model, in program order, exactly once (squash
	// replays are not re-delivered): the committed instruction stream.
	// The differential backend harness hashes it for cross-fidelity
	// equivalence checks. Observation never perturbs simulation outcomes.
	FeedObserver func(emu.Dyn)
}

// IntervalStats is the progress snapshot handed to a RunOptions.Observer:
// cumulative counters plus rates over the interval since the previous
// callback (IPC, elimination rate, occupancy averages).
type IntervalStats struct {
	Cycles uint64 // cumulative elapsed cycles
	Insts  uint64 // cumulative committed instructions
	IPC    float64

	IntervalCycles uint64
	IntervalInsts  uint64
	IntervalIPC    float64

	// ElimPct is the cumulative eliminated share of committed
	// instructions (percent); IntervalElimPct covers this interval only.
	ElimPct         float64
	IntervalElimPct float64

	// IQOcc and PregsInUse are interval averages of issue-queue occupancy
	// and allocated physical registers.
	IQOcc      float64
	PregsInUse float64
}

// ctxCheckInterval is how many cycles pass between context polls: rare
// enough to stay off the hot path, frequent enough that cancellation lands
// within microseconds of simulated work.
const ctxCheckInterval = 1024

// Run simulates until the stream drains (or MaxInsts commit) and returns
// the result. It is RunContext with no deadline, no budget, and no
// observer.
func (s *Sim) Run() (*Result, error) {
	return s.RunContext(context.Background(), RunOptions{})
}

// RunContext simulates until the stream drains, Config.MaxInsts commit, the
// cycle budget is exhausted, or ctx is done. On cancellation it returns the
// partial result accumulated so far together with ctx's error, so callers
// always get the statistics the cycles they paid for produced; all other
// stops return a nil error and stamp Result.StopReason. RunContext spawns
// no goroutines and returns promptly (within ctxCheckInterval simulated
// cycles) once ctx is canceled.
func (s *Sim) RunContext(ctx context.Context, opts RunOptions) (*Result, error) {
	if opts.CPAChunk > 0 && s.analyzer == nil {
		s.AttachCPA(opts.CPAChunk)
	}
	done := ctx.Done()
	var prev obsBase // observer baseline (zero = start of timing)
	nextObserve := uint64(0)
	if opts.Observer != nil && opts.ObserveEvery > 0 {
		nextObserve = opts.ObserveEvery
	}
	for {
		if s.src.exhausted() && s.robCount == 0 && s.fqLen == 0 {
			// A trace feed bounded by MaxInsts drains here rather than at
			// the commit check below; label the stop all the same.
			if s.cfg.MaxInsts > 0 && s.committed >= s.cfg.MaxInsts {
				s.res.StopReason = "max-insts"
			}
			break
		}
		if s.cfg.MaxInsts > 0 && s.committed >= s.cfg.MaxInsts {
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
		if nextObserve > 0 && s.committed >= nextObserve {
			prev = s.observe(opts.Observer, prev)
			for nextObserve <= s.committed {
				nextObserve += opts.ObserveEvery
			}
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

// obsBase is the raw-counter snapshot an interval is measured against.
type obsBase struct {
	cycles, insts, elim, iqSum, pregSum uint64
}

// observe emits one interval snapshot and returns the new baseline.
func (s *Sim) observe(fn func(IntervalStats), prev obsBase) obsBase {
	var elim uint64
	for _, n := range s.elimCommit {
		elim += n
	}
	cur := obsBase{
		cycles: s.cycle, insts: s.committed, elim: elim,
		iqSum: s.iqOccSum, pregSum: s.pregSum,
	}
	st := IntervalStats{
		Cycles:         cur.cycles,
		Insts:          cur.insts,
		IntervalCycles: cur.cycles - prev.cycles,
		IntervalInsts:  cur.insts - prev.insts,
	}
	if st.Cycles > 0 {
		st.IPC = float64(st.Insts) / float64(st.Cycles)
	}
	if st.IntervalCycles > 0 {
		st.IntervalIPC = float64(st.IntervalInsts) / float64(st.IntervalCycles)
		st.IQOcc = float64(cur.iqSum-prev.iqSum) / float64(st.IntervalCycles)
		st.PregsInUse = float64(cur.pregSum-prev.pregSum) / float64(st.IntervalCycles)
	}
	if st.Insts > 0 {
		st.ElimPct = 100 * float64(cur.elim) / float64(st.Insts)
	}
	if st.IntervalInsts > 0 {
		st.IntervalElimPct = 100 * float64(cur.elim-prev.elim) / float64(st.IntervalInsts)
	}
	fn(st)
	return cur
}

func (s *Sim) finish() *Result {
	r := &s.res
	r.Cycles = s.cycle
	r.Insts = s.committed
	if s.cycle > 0 {
		r.IPC = float64(s.committed) / float64(s.cycle)
		r.AvgIQOcc = float64(s.iqOccSum) / float64(s.cycle)
		r.AvgPregsInUse = float64(s.pregSum) / float64(s.cycle)
	}
	// Engine stats cover every *decision*; the Eliminated tally is replaced
	// by the commit-time per-kind counts so the report is exact even when a
	// cycle budget or cancellation stopped the run mid-window.
	r.Reno = s.eng.Stats()
	r.Reno.Eliminated = s.elimCommit
	if s.committed > 0 {
		n := float64(s.committed)
		r.ElimME = 100 * float64(r.Reno.Eliminated[reno.KindME]) / n
		r.ElimCF = 100 * float64(r.Reno.Eliminated[reno.KindCF]) / n
		r.ElimLoads = 100 * float64(r.Reno.Eliminated[reno.KindCSELoad]+r.Reno.Eliminated[reno.KindRALoad]) / n
		r.ElimALU = 100 * float64(r.Reno.Eliminated[reno.KindCSEALU]) / n
		r.ElimTotal = r.ElimME + r.ElimCF + r.ElimLoads + r.ElimALU
	}
	r.BranchAccuracy = s.bp.Accuracy()
	r.L1DMissRate = s.mem.L1D.MissRate()
	r.L2MissRate = s.mem.L2.MissRate()
	r.MaxPregsUsed = s.rc.MaxInUse
	if it := s.eng.Optimizer().IT(); it != nil {
		r.ITLookups, r.ITInserts, r.ITHits = it.Lookups, it.Inserts, it.Hits
	}
	if s.analyzer != nil {
		s.analyzer.Flush()
		r.CPA = s.analyzer
	}
	return r
}

// robPos returns the entry at offset off from the ROB head (0 = oldest).
// off is always < len(s.rob), so the wrap needs a compare, not a division —
// issueStage walks the whole window every cycle, making this the hottest
// address computation in the simulator.
//
//reno:hotpath
func (s *Sim) robPos(off int) *entry {
	idx := s.robHead + off
	if idx >= len(s.rob) {
		idx -= len(s.rob)
	}
	return &s.rob[idx]
}

// fqAt returns the fetch-queue entry at offset off from the queue head.
//
//reno:hotpath
func (s *Sim) fqAt(off int) *entry {
	idx := s.fqHead + off
	if idx >= fqCap {
		idx -= fqCap
	}
	return &s.fq[idx]
}

// ---------------------------------------------------------------- commit

// bookPort reserves a slot on a retirement-side cache port through the
// decoupled retirement queue; it fails only when the backlog exceeds the
// queue depth. Stores use the store-retirement port; integrated load
// re-executions use the load-port bandwidth their elimination vacated (a
// capacity-neutral reading of the paper's re-execution scheme). A method rather than a per-commitStage closure: the commit
// stage runs every cycle and must not allocate.
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
			if w := s.wakeAt[e.dataP]; w == never || w > s.cycle {
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
		} else if e.misBypass {
			// Engine-adjudicated stale bypass: the first trip modeled the
			// bogus integration; retirement re-execution now fails. Drop
			// this load and all younger work and replay — the recorded
			// (conventional) decision then executes it for real.
			if !s.bookPort(&s.reexecFreeAt, s.cfg.LoadPorts) {
				return
			}
			s.mem.AccessD(e.dyn.EA*8, s.cycle, false)
			s.res.ReexecFails++
			e.misBypass = false
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
		}
		s.robHead++
		if s.robHead == len(s.rob) {
			s.robHead = 0
		}
		s.robCount--
		s.committed++
	}
}

//reno:hotpath
func (s *Sim) trainBranch(e *entry) {
	switch isa.ClassOf(e.dyn.Inst) {
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
		return e.memLevel
	}
	return cpa.BALU
}

// ---------------------------------------------------------------- issue

//reno:hotpath
func (s *Sim) issueStage() {
	total := s.cfg.IssueTotal
	ints := s.cfg.IntALUs
	fps := s.cfg.FPUnits
	lds := s.cfg.LoadPorts
	sts := s.cfg.StorePorts

	for off := 0; off < s.robCount && total > 0; off++ {
		e := s.robPos(off)
		if e.state != stWaiting {
			continue
		}
		cls := isa.ClassOf(e.dyn.Inst)
		switch cls {
		case isa.ClassLoad:
			if lds == 0 {
				continue
			}
		case isa.ClassStore:
			if sts == 0 {
				continue
			}
		case isa.ClassFP:
			if fps == 0 {
				continue
			}
		default:
			if ints == 0 {
				continue
			}
		}
		if !s.ready(e, off) {
			continue
		}

		e.issueC = s.cycle
		e.state = stIssued
		e.compC = s.cycle + uint64(s.execLatency(e))

		if e.isLoad {
			s.issueLoad(e, off)
		}
		if e.isStore {
			e.addrDone = true
			if s.checkViolations(e, off) {
				return // squash invalidated iteration state
			}
		}
		if e.ren.HasDest {
			w := e.compC
			if sl := uint64(s.cfg.SchedLoop); w-e.issueC < sl {
				w = e.issueC + sl
			}
			s.wakeAt[e.ren.NewMap.P] = w
		}
		if e.mispredicted && s.blockingSeq == e.seq {
			s.redirectUntil = e.compC + uint64(s.cfg.RedirectPenalty)
			s.blockingSeq = never
			s.pendingCauseKind, s.pendingCauseSeq = cpa.BoundMispredict, e.seq
		}
		e.inIQ = false
		s.iqUsed--
		total--
		switch cls {
		case isa.ClassLoad:
			lds--
		case isa.ClassStore:
			sts--
		case isa.ClassFP:
			fps--
		default:
			ints--
		}
	}
}

// ready decides whether an IQ entry can be selected this cycle and records
// the last-arriving constraint for the critical-path analyzer.
//
//reno:hotpath
func (s *Sim) ready(e *entry, off int) bool {
	// Stores need only the base-address operand to issue; data merges in
	// the store queue later.
	nsrc := e.ren.NSrc
	if e.isStore {
		nsrc = 1
	}
	var opWake uint64
	opSrc := -1
	for i := 0; i < nsrc; i++ {
		p := e.ren.Src[i].P
		w := s.wakeAt[p]
		if w == never || w > s.cycle {
			e.issueBound = cpa.BoundProducer
			e.issueBoundSeq = s.writerSeq[p]
			return false
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
					return false
				}
			}
		}
		// An older same-address store with a resolved address but unready
		// data blocks the load until it can forward.
		if idx, blocked := s.forwardBlocker(e, off); blocked {
			e.issueBound = cpa.BoundProducer
			e.issueBoundSeq = s.robPos(idx).seq
			return false
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
	return true
}

// execLatency returns issue-to-result latency including fusion penalties
// from the RENO.CF cost model.
//
//reno:hotpath
func (s *Sim) execLatency(e *entry) int {
	pen := e.ren.FusePenalty
	switch isa.ClassOf(e.dyn.Inst) {
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
func (s *Sim) issueLoad(e *entry, off int) {
	addrReady := e.compC
	for i := off - 1; i >= 0; i-- {
		se := s.robPos(i)
		if !se.isStore || !se.addrDone || se.dyn.EA != e.dyn.EA {
			continue
		}
		if w := s.wakeAt[se.dataP]; w != never && w <= s.cycle {
			e.forwarded = true
			e.fwdStore = se.seq
			e.compC = addrReady + 1
			e.memLevel = cpa.BLoad
			return
		}
		break
	}
	memBefore := s.mem.MemAccesses
	e.compC = s.mem.AccessD(e.dyn.EA*8, addrReady, false)
	if s.mem.MemAccesses > memBefore {
		e.memLevel = cpa.BMem
	} else {
		e.memLevel = cpa.BLoad
	}
}

// forwardBlocker finds the youngest older address-resolved same-address
// store whose data is not ready yet.
//
//reno:hotpath
func (s *Sim) forwardBlocker(e *entry, off int) (int, bool) {
	for i := off - 1; i >= 0; i-- {
		se := s.robPos(i)
		if !se.isStore || !se.addrDone || se.dyn.EA != e.dyn.EA {
			continue
		}
		if w := s.wakeAt[se.dataP]; w == never || w > s.cycle {
			return i, true
		}
		return 0, false
	}
	return 0, false
}

// checkViolations runs when a store resolves its address: a younger
// same-address load that already issued without forwarding from this store
// (or a younger one) read stale data. Reports whether a squash happened.
//
//reno:hotpath
func (s *Sim) checkViolations(st *entry, stOff int) bool {
	for i := stOff + 1; i < s.robCount; i++ {
		le := s.robPos(i)
		if !le.isLoad || le.state != stIssued || le.ren.Elim || le.misBypass {
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

// squashFrom rolls back ROB offsets [from, robCount) youngest-first —
// exercising RENO's rollback semantics — and replays them through fetch.
// causeSeq identifies the resolving instruction for CPA accounting.
//
//reno:hotpath
func (s *Sim) squashFrom(from int, causeSeq uint64) {
	n := s.robCount - from
	if n <= 0 {
		return
	}
	s.res.Replays++
	minSeq := s.robPos(from).seq
	// replayBuf has capacity for the full in-flight window, so rebuilding
	// the replay batch allocates nothing; pushFront copies it into the
	// stream's own stack before squashFrom returns. Each record carries the
	// elimination-engine decision already pulled for it: rename state is
	// owned by the engine and is never rolled back — a replayed instruction
	// reuses its original mappings.
	replay := s.replayBuf[:0]
	for i := from; i < s.robCount; i++ {
		e := s.robPos(i)
		replay = append(replay, replayRec{
			dyn: e.dyn, ren: e.ren, renValid: true,
			misBypass: e.misBypass, minCommitted: e.minCommitted,
		})
	}
	// The fetch queue holds even younger instructions; they replay too
	// (they were fetched down a path now being refetched), carrying any
	// decision they may already hold.
	for i := 0; i < s.fqLen; i++ {
		fe := s.fqAt(i)
		replay = append(replay, replayRec{
			dyn: fe.dyn, ren: fe.ren, renValid: fe.renValid,
			misBypass: fe.misBypass, minCommitted: fe.minCommitted,
		})
	}
	s.fqHead, s.fqLen = 0, 0

	for i := s.robCount - 1; i >= from; i-- {
		e := s.robPos(i)
		if e.inIQ {
			s.iqUsed--
		}
		if e.isLoad {
			s.lqUsed--
		}
		if e.isStore {
			s.sqUsed--
		}
	}
	s.robCount = from

	s.squashMinSeq = minSeq
	s.ss.Squash(s.ssDead)
	s.src.pushFront(replay)
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
	robLeft := len(s.rob) - s.robCount

	s.windowBlocked = false
	n := 0
	for n < width && n < s.fqLen {
		e := s.fqAt(n)
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
		cls := isa.ClassOf(e.dyn.Inst)
		if cls == isa.ClassLoad && lqLeft == 0 {
			s.blockOn(blockLoad)
			break
		}
		if cls == isa.ClassStore && sqLeft == 0 {
			s.blockOn(blockStore)
			break
		}

		// Pull the elimination-engine decision — exactly once per dynamic
		// instruction; replays arrive with renValid already set.
		if !e.renValid {
			dec, err := s.eng.Next(e.dyn)
			if err != nil {
				s.engErr = err
				return
			}
			e.ren = dec.Ren
			e.misBypass = dec.MisBypass
			e.minCommitted = dec.MinCommitted
			e.renValid = true
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
			if e.misBypass {
				// Stand-in for the bogus integration: dependents see the
				// (wrong) value as already available, exactly as they
				// would have through the shared mapping.
				s.wakeAt[e.ren.NewMap.P] = s.cycle
			} else {
				s.wakeAt[e.ren.NewMap.P] = never
			}
			s.writerSeq[e.ren.NewMap.P] = e.seq
		}

		if e.ren.Elim || e.misBypass {
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
			e.inIQ = true
			s.iqUsed++
		}

		if e.isLoad {
			s.lqUsed++
			if tag, constrained := s.ss.LookupLoad(e.dyn.PC); constrained {
				e.hasSS = true
				e.ssConstraint = uint64(tag)
			}
		}
		if e.isStore {
			s.sqUsed++
			e.dataP = e.ren.Src[1].P
			s.ss.NoteStoreFetched(e.dyn.PC, uint32(e.seq))
		}

		*s.robPos(s.robCount) = *e
		s.robCount++
		n++
	}
	s.fqHead += n
	if s.fqHead >= fqCap {
		s.fqHead -= fqCap
	}
	s.fqLen -= n
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
		rec, replayed, ok := s.src.pull()
		if !ok {
			break
		}
		d := rec.dyn
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

		e := entry{
			dyn: d, state: stFetched, seq: s.seqNext,
			fetchC: fetchC, compC: never, replayed: replayed,
			fetchBound: cpa.BoundPrevFetch,
			ren:        rec.ren, renValid: rec.renValid,
			misBypass: rec.misBypass, minCommitted: rec.minCommitted,
		}
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

		cls := isa.ClassOf(d.Inst)
		isCT := cls == isa.ClassBranch || cls == isa.ClassCall || cls == isa.ClassReturn
		if isCT && !replayed {
			// Replayed instructions re-fetch down a known-correct path;
			// re-predicting them would double-count mispredictions and
			// corrupt the RAS.
			pred := s.bp.Predict(d.PC, d.Inst)
			if pred != d.NextPC {
				e.mispredicted = true
				s.res.Mispredicts++
			}
		}
		*s.fqAt(s.fqLen) = e
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
