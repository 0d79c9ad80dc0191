// Package storesets implements the store-sets memory dependence predictor
// of Chrysos and Emer (ISCA 1998), used by the simulated core to schedule
// loads aggressively (Section 4.1: a 64-entry store sets predictor).
//
// The predictor maintains two tables:
//
//   - SSIT (store set ID table): maps instruction PCs (both loads and
//     stores) to a store set ID.
//   - LFST (last fetched store table): maps a store set ID to the most
//     recently fetched in-flight store in that set.
//
// A load in a store set must wait for the LFST store; loads with no set
// issue as soon as their address operands are ready. When a memory-order
// violation is detected at commit, the offending load and store are merged
// into the same set.
package storesets

// Invalid marks an empty SSIT entry / LFST slot.
const Invalid = ^uint32(0)

// Predictor is a store-sets memory dependence predictor.
type Predictor struct {
	ssit    []uint32 // PC-indexed -> store set ID
	lfst    []uint32 // set ID -> in-flight store tag (caller-defined)
	nextSet uint32

	Assignments uint64 // violations that created/merged sets
	Lookups     uint64
	Constrained uint64 // loads forced to wait on a store
}

// New builds a predictor with 2^pcBits SSIT entries and maxSets store sets.
// The paper's configuration is 64 store sets.
func New(pcBits, maxSets int) *Predictor {
	p := &Predictor{
		ssit: make([]uint32, 1<<pcBits),
		lfst: make([]uint32, maxSets),
	}
	p.Reset()
	return p
}

func (p *Predictor) idx(pc uint64) uint64 { return pc & uint64(len(p.ssit)-1) }

// LookupLoad returns the in-flight store tag the load at pc must wait for,
// or (0, false) if unconstrained.
func (p *Predictor) LookupLoad(pc uint64) (storeTag uint32, constrained bool) {
	p.Lookups++
	set := p.ssit[p.idx(pc)]
	if set == Invalid {
		return 0, false
	}
	tag := p.lfst[set]
	if tag == Invalid {
		return 0, false
	}
	p.Constrained++
	return tag, true
}

// NoteStoreFetched records that the store at pc (identified in-flight by
// tag) has been fetched; later loads in the same set serialize behind it.
func (p *Predictor) NoteStoreFetched(pc uint64, tag uint32) {
	set := p.ssit[p.idx(pc)]
	if set != Invalid {
		p.lfst[set] = tag
	}
}

// NoteStoreRetired clears the LFST slot if it still points at tag.
func (p *Predictor) NoteStoreRetired(pc uint64, tag uint32) {
	set := p.ssit[p.idx(pc)]
	if set != Invalid && p.lfst[set] == tag {
		p.lfst[set] = Invalid
	}
}

// Violation records a memory-order violation between the load at loadPC and
// the store at storePC, merging them into one store set (creating it if
// needed). This is the only training event.
func (p *Predictor) Violation(loadPC, storePC uint64) {
	p.Assignments++
	li, si := p.idx(loadPC), p.idx(storePC)
	ls, ss := p.ssit[li], p.ssit[si]
	switch {
	case ls == Invalid && ss == Invalid:
		set := p.nextSet % uint32(len(p.lfst))
		p.nextSet++
		p.lfst[set] = Invalid
		p.ssit[li], p.ssit[si] = set, set
	case ls == Invalid:
		p.ssit[li] = ss
	case ss == Invalid:
		p.ssit[si] = ls
	default:
		// Both have sets: the declining-ID rule (assign both to the lower
		// set ID) keeps merging convergent.
		if ls < ss {
			p.ssit[si] = ls
		} else {
			p.ssit[li] = ss
		}
	}
}

// Squash invalidates any LFST entries pointing at squashed stores; the
// caller supplies a predicate over in-flight store tags.
func (p *Predictor) Squash(dead func(tag uint32) bool) {
	for i, tag := range p.lfst {
		if tag != Invalid && dead(tag) {
			p.lfst[i] = Invalid
		}
	}
}

// Reset clears all state, leaving p as New built it.
func (p *Predictor) Reset() {
	for i := range p.ssit {
		p.ssit[i] = Invalid
	}
	for i := range p.lfst {
		p.lfst[i] = Invalid
	}
	p.nextSet = 0
	p.Assignments, p.Lookups, p.Constrained = 0, 0, 0
}
