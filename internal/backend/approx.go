package backend

import (
	"context"

	"reno/internal/bpred"
	"reno/internal/cache"
	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/pipeline"
	"reno/internal/reno"
)

// approxBackend is the cycle-approximate model: the exact elimination
// engine, branch predictor, and cache hierarchy of the detailed pipeline,
// with cycles estimated by a one-pass dataflow-height calculation instead of
// structural simulation. Architectural results and elimination counts are
// exact; Cycles/IPC carry the accuracy envelope pinned by
// internal/backend/difftest (see docs/backends.md).
//
// The estimator computes, per committed instruction, the earliest cycle it
// could complete under four first-order constraints: front-end order (fetch
// width, I$ latency, misprediction redirects), the ROB window (an
// instruction cannot start before the instruction ROBSize older completed),
// register dataflow (operands ready, with eliminated instructions
// collapsing to their source — RENO's latency benefit falls out naturally),
// and memory (the shared cache hierarchy's data-ready times, so independent
// misses overlap and dependent chains serialize without an explicit MLP
// knob). Estimated cycles are the maximum of the resulting dataflow height
// and the aggregate throughput bounds (fetch/issue/commit/port widths).
// What it deliberately omits: issue-queue capacity, scheduler loop,
// replays, and store-queue pressure.
type approxBackend struct{}

func (approxBackend) Kind() Kind { return Approx }

func (approxBackend) Run(ctx context.Context, req Request) (*Result, error) {
	st := &approxState{
		bp:        bpred.New(bpred.Default()),
		mem:       cache.DefaultHierarchy(),
		lastBlock: ^uint64(0),
		ring:      make([]uint64, req.Cfg.ROBSize),
	}
	hook := func(d emu.Dyn, dec elim.Decision) { st.step(req.Cfg, d, dec) }
	finish := func(run *engineRun, r *pipeline.Result) { st.finish(run, r) }
	return runEngine(ctx, req, hook, finish)
}

// approxState is the dataflow-height estimator.
type approxState struct {
	bp  *bpred.Predictor
	mem *cache.Hierarchy

	idx       uint64 // committed instructions seen
	fetchC    uint64 // front-end fetch-stage clock
	fetchSlot int    // instructions fetched in the current front-end cycle
	lastBlock uint64

	regReady [isa.NumLogicalRegs]uint64 // cycle each architectural value is ready
	ring     []uint64                   // completion times, ROBSize deep (window constraint)
	height   uint64                     // dataflow critical path (max completion)

	loads, stores, fps uint64
	mispredicts        uint64
}

//reno:hotpath
func (st *approxState) step(cfg pipeline.Config, d emu.Dyn, dec elim.Decision) {
	in := d.Inst

	// Front end: FetchWidth instructions per cycle, stretched by I$ misses
	// (one access per new 32-byte block, as in the detailed front end).
	if st.fetchSlot >= cfg.FetchWidth {
		st.fetchSlot = 0
		st.fetchC++
	}
	st.fetchSlot++
	if blk := d.PC / 8; blk != st.lastBlock {
		st.lastBlock = blk
		if avail := st.mem.AccessI(d.PC*4, st.fetchC) - 1; avail > st.fetchC {
			st.fetchC = avail
			st.fetchSlot = 1
		}
	}

	// Earliest start: fetched and decoded, window slot free, operands ready.
	start := st.fetchC + uint64(cfg.FrontLat)
	if wr := st.ring[st.idx%uint64(len(st.ring))]; wr > start {
		start = wr
	}
	rs, rt := isa.Sources(in)
	if n := isa.NumSources(in); n >= 1 {
		if r := st.regReady[rs]; r > start {
			start = r
		}
		if n >= 2 {
			if r := st.regReady[rt]; r > start {
				start = r
			}
		}
	}

	elim := dec.Ren.Elim || dec.Ren.MisBypass
	pen := uint64(dec.Ren.FusePenalty)
	done := start
	cls := isa.ClassOf(in)
	switch cls {
	case isa.ClassLoad:
		st.loads++
		if elim {
			// Integrated load: the value already sits in a physical
			// register; the retirement re-execution still generates cache
			// traffic (and the mis-bypass replay pays it on the spot).
			st.mem.AccessD(d.EA*8, start, false)
		} else {
			done = st.mem.AccessD(d.EA*8, start, false) + pen
		}
	case isa.ClassStore:
		st.stores++
		st.mem.AccessD(d.EA*8, start, true)
		done = start + 1
	case isa.ClassBranch, isa.ClassCall, isa.ClassReturn:
		done = start + uint64(cfg.BranchLat) + pen
		pred := st.bp.Predict(d.PC, in)
		mispredicted := pred != d.NextPC
		if mispredicted {
			st.mispredicts++
			// Redirect: the front end refetches once the branch resolves.
			if nf := done + uint64(cfg.RedirectPenalty); nf > st.fetchC {
				st.fetchC = nf
				st.fetchSlot = 0
			}
		}
		// Train exactly as the detailed commit stage does.
		switch cls {
		case isa.ClassBranch:
			switch in.Op {
			case isa.OpJmp:
				// Direct unconditional: always predicted exactly.
			case isa.OpJr:
				st.bp.UpdateTarget(d.PC, d.NextPC)
			default:
				st.bp.UpdateDir(d.PC, d.Taken)
				if d.Taken {
					st.bp.UpdateTarget(d.PC, d.NextPC)
				}
			}
		case isa.ClassCall:
			if in.Op == isa.OpJalr {
				st.bp.UpdateTarget(d.PC, d.NextPC)
			}
		case isa.ClassReturn:
			st.bp.NoteRASOutcome(!mispredicted)
		}
	case isa.ClassIntMul:
		st.fps += 0 // integer unit; classified for clarity
		lat := uint64(cfg.MulLat)
		if in.Op == isa.OpDiv {
			lat = uint64(cfg.DivLat)
		}
		done = start + lat + pen
	case isa.ClassFP:
		st.fps++
		done = start + uint64(cfg.FPLat) + pen
	case isa.ClassNop, isa.ClassHalt:
		done = start + 1
	default:
		done = start + uint64(cfg.IntLat) + pen
	}
	if elim {
		// Eliminated: no execution; the renamed value is ready as soon as
		// its operands are (dependence collapse, the paper's latency win).
		done = start
	}

	if isa.HasDest(in) && in.Rd != isa.RZero {
		st.regReady[in.Rd] = done
	}
	st.ring[st.idx%uint64(len(st.ring))] = done
	if done > st.height {
		st.height = done
	}
	st.idx++
}

// finish combines the dataflow height with aggregate throughput bounds.
func (st *approxState) finish(run *engineRun, r *pipeline.Result) {
	var el [reno.NumKinds]uint64
	if run.eng != nil {
		el = run.eng.Stats().Eliminated
	}
	elimLoads := el[reno.KindCSELoad] + el[reno.KindRALoad]
	elimInt := el[reno.KindME] + el[reno.KindCF] + el[reno.KindCSEALU]

	insts := run.insts
	loadsExec := st.loads - elimLoads
	intish := insts - st.loads - st.stores - st.fps
	intExec := intish - elimInt
	issueOps := intExec + loadsExec + st.stores + st.fps

	cfg := r.Config
	base := ceilDiv(insts, uint64(cfg.FetchWidth))
	for _, b := range [...]uint64{
		ceilDiv(insts, uint64(cfg.CommitWidth)),
		ceilDiv(issueOps, uint64(cfg.IssueTotal)),
		ceilDiv(intExec, uint64(cfg.IntALUs)),
		ceilDiv(loadsExec, uint64(cfg.LoadPorts)),
		ceilDiv(st.stores, uint64(cfg.StorePorts)),
		ceilDiv(st.fps, uint64(cfg.FPUnits)),
		st.height,
	} {
		if b > base {
			base = b
		}
	}
	r.Cycles = base
	r.Mispredicts = st.mispredicts
	r.BranchAccuracy = st.bp.Accuracy()
	r.L1DMissRate = st.mem.L1D.MissRate()
	r.L2MissRate = st.mem.L2.MissRate()
}

func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return (a + b - 1) / b
}
