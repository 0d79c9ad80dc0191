// Package bpred implements the front-end prediction structures of the
// simulated core: a hybrid (bimodal + gshare with a chooser) direction
// predictor sized at 16Kb as in Section 4.1 of the paper, a 2K-entry 4-way
// set-associative branch target buffer, and a 32-entry return address stack.
package bpred

import "reno/internal/isa"

// Config sizes the predictor structures. The zero value is not useful; use
// Default.
type Config struct {
	BimodalBits int // log2 entries of the bimodal table
	GshareBits  int // log2 entries of the gshare table and history length
	ChooserBits int // log2 entries of the chooser table
	BTBEntries  int // total BTB entries
	BTBWays     int
	RASEntries  int
}

// Default returns the paper's 16Kb hybrid predictor: 4K-entry bimodal,
// 4K-entry gshare, 4K-entry chooser (2 bits each = 24Kb total tables is the
// usual "16Kb class" rounding), 2K-entry 4-way BTB, 32-entry RAS.
func Default() Config {
	return Config{
		BimodalBits: 12, GshareBits: 12, ChooserBits: 12,
		BTBEntries: 2048, BTBWays: 4, RASEntries: 32,
	}
}

// Predictor is the combined direction predictor, BTB, and RAS.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit saturating counters
	gshare  []uint8
	chooser []uint8 // 2-bit: >=2 selects gshare
	history uint64

	// BTB arrays are flat (set-major, btbSets×BTBWays): one allocation each
	// and contiguous way scans, instead of three slice headers per set.
	btbSets int
	btbTags []uint64
	btbTgts []uint64
	btbLRU  []uint8

	ras    []uint64
	rasTop int

	// Stats
	DirLookups, DirHits   uint64
	BTBLookups, BTBHits   uint64
	RASPushes, RASCorrect uint64
	RASPops               uint64
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg}
	p.bimodal = make([]uint8, 1<<cfg.BimodalBits)
	p.gshare = make([]uint8, 1<<cfg.GshareBits)
	p.chooser = make([]uint8, 1<<cfg.ChooserBits)
	p.btbSets = cfg.BTBEntries / cfg.BTBWays
	p.btbTags = make([]uint64, cfg.BTBEntries)
	p.btbTgts = make([]uint64, cfg.BTBEntries)
	p.btbLRU = make([]uint8, cfg.BTBEntries)
	p.ras = make([]uint64, cfg.RASEntries)
	p.Reset()
	return p
}

// Reset clears all learned state and statistics: every counter weakly
// not-taken, every BTB entry invalid, the history and the RAS empty, as
// New builds them.
func (p *Predictor) Reset() {
	for _, t := range [][]uint8{p.bimodal, p.gshare, p.chooser} {
		for i := range t {
			t[i] = 1 // weakly not-taken
		}
	}
	p.history = 0
	for i := range p.btbTags {
		p.btbTags[i] = ^uint64(0)
	}
	clear(p.btbTgts)
	clear(p.btbLRU)
	clear(p.ras)
	p.rasTop = 0
	p.DirLookups, p.DirHits = 0, 0
	p.BTBLookups, p.BTBHits = 0, 0
	p.RASPushes, p.RASCorrect, p.RASPops = 0, 0, 0
}

// btbSet returns the way-slice bounds of pc's BTB set.
func (p *Predictor) btbSet(pc uint64) (lo, hi int) {
	set := int(pc % uint64(p.btbSets))
	lo = set * p.cfg.BTBWays
	return lo, lo + p.cfg.BTBWays
}

func (p *Predictor) bimodalIdx(pc uint64) uint64 {
	return pc & (1<<p.cfg.BimodalBits - 1)
}

func (p *Predictor) gshareIdx(pc uint64) uint64 {
	return (pc ^ p.history) & (1<<p.cfg.GshareBits - 1)
}

func (p *Predictor) chooserIdx(pc uint64) uint64 {
	return pc & (1<<p.cfg.ChooserBits - 1)
}

// PredictDir predicts the direction of a conditional branch at pc.
func (p *Predictor) PredictDir(pc uint64) bool {
	if p.chooser[p.chooserIdx(pc)] >= 2 {
		return p.gshare[p.gshareIdx(pc)] >= 2
	}
	return p.bimodal[p.bimodalIdx(pc)] >= 2
}

// UpdateDir trains the direction predictor with the resolved outcome and
// updates the global history. Call once per retired conditional branch.
func (p *Predictor) UpdateDir(pc uint64, taken bool) {
	p.DirLookups++
	bi := p.bimodalIdx(pc)
	gi := p.gshareIdx(pc)
	ci := p.chooserIdx(pc)
	bPred := p.bimodal[bi] >= 2
	gPred := p.gshare[gi] >= 2
	pred := bPred
	if p.chooser[ci] >= 2 {
		pred = gPred
	}
	if pred == taken {
		p.DirHits++
	}
	// Chooser trains toward whichever component was correct (when they
	// disagree).
	if bPred != gPred {
		if gPred == taken {
			sat(&p.chooser[ci], +1)
		} else {
			sat(&p.chooser[ci], -1)
		}
	}
	if taken {
		sat(&p.bimodal[bi], +1)
		sat(&p.gshare[gi], +1)
	} else {
		sat(&p.bimodal[bi], -1)
		sat(&p.gshare[gi], -1)
	}
	p.history = p.history<<1 | b2u(taken)
}

func sat(c *uint8, d int) {
	if d > 0 && *c < 3 {
		*c++
	}
	if d < 0 && *c > 0 {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PredictTarget consults the BTB for the target of a taken control transfer
// at pc. ok is false on a BTB miss (in the pipeline this delays the
// redirect by a cycle and is otherwise treated as a not-taken prediction).
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	p.BTBLookups++
	lo, hi := p.btbSet(pc)
	for i := lo; i < hi; i++ {
		if p.btbTags[i] == pc {
			p.BTBHits++
			p.touchBTB(lo, hi, i)
			return p.btbTgts[i], true
		}
	}
	return 0, false
}

// UpdateTarget installs or refreshes a BTB entry.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	lo, hi := p.btbSet(pc)
	// Hit: update in place.
	for i := lo; i < hi; i++ {
		if p.btbTags[i] == pc {
			p.btbTgts[i] = target
			p.touchBTB(lo, hi, i)
			return
		}
	}
	// Miss: replace LRU (highest age).
	victim, worst := lo, uint8(0)
	for i := lo; i < hi; i++ {
		if p.btbLRU[i] >= worst {
			worst, victim = p.btbLRU[i], i
		}
	}
	p.btbTags[victim] = pc
	p.btbTgts[victim] = target
	p.touchBTB(lo, hi, victim)
}

func (p *Predictor) touchBTB(lo, hi, way int) {
	for i := lo; i < hi; i++ {
		if p.btbLRU[i] < 255 {
			p.btbLRU[i]++
		}
	}
	p.btbLRU[way] = 0
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(retAddr uint64) {
	p.RASPushes++
	p.ras[p.rasTop] = retAddr
	p.rasTop = (p.rasTop + 1) % len(p.ras)
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() uint64 {
	p.RASPops++
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return p.ras[p.rasTop]
}

// NoteRASOutcome tracks return-prediction accuracy (statistics only).
func (p *Predictor) NoteRASOutcome(correct bool) {
	if correct {
		p.RASCorrect++
	}
}

// Predict produces a full next-PC prediction for instruction in at pc. cls
// is in's class, isa.ClassOf as read from its predecoded facts.
// It returns the predicted next PC and whether the prediction consulted a
// structure that might be wrong (conditional direction, BTB target, or RAS).
//
// The pipeline calls this at fetch; unconditional direct branches with BTB
// hits are effectively always right, returns are usually right, conditional
// branches depend on the direction tables.
func (p *Predictor) Predict(pc uint64, in isa.Inst, cls isa.Class) (nextPC uint64) {
	switch cls {
	case isa.ClassBranch:
		switch in.Op {
		case isa.OpJmp:
			return isa.Target(pc, in)
		case isa.OpJr:
			// Indirect jump: BTB or fall-through.
			if t, ok := p.PredictTarget(pc); ok {
				return t
			}
			return pc + 1
		default: // conditional
			if p.PredictDir(pc) {
				if t, ok := p.PredictTarget(pc); ok {
					return t
				}
				// Direction says taken but no target known: compute it
				// directly for direct conditionals (decode provides it).
				return isa.Target(pc, in)
			}
			return pc + 1
		}
	case isa.ClassCall:
		p.PushRAS(pc + 1)
		if in.Op == isa.OpJal {
			return isa.Target(pc, in)
		}
		// jalr: indirect call.
		if t, ok := p.PredictTarget(pc); ok {
			return t
		}
		return pc + 1
	case isa.ClassReturn:
		return p.PopRAS()
	}
	return pc + 1
}

// Accuracy returns the direction-prediction hit rate.
func (p *Predictor) Accuracy() float64 {
	if p.DirLookups == 0 {
		return 0
	}
	return float64(p.DirHits) / float64(p.DirLookups)
}
