// Package it implements the integration table (IT) that drives RENO.CSE
// (dynamic common-subexpression elimination) and RENO.RA (speculative
// memory bypassing), Sections 2.2 and 2.4 of the paper.
//
// The IT treats the physical register file as a value cache. Each entry
// describes one physical register in terms of the dataflow of the
// instruction that created its value:
//
//	<opcode/imm, [pin1:din1], [pin2:din2] -> [pout:dout]>
//
// When renaming an instruction, the table is probed (hash-indexed,
// set-associative — not associatively searched) for a tuple with the same
// operation and the same input mappings; a hit means the value the
// instruction would compute already exists, and the instruction collapses
// by mapping its output to [pout:dout].
//
// Stores create *reverse* entries: a store `st rt, imm(rs)` installs the
// tuple a matching future load would probe, <load/imm, [p_rs:d_rs] ->
// [p_rt:d_rt]>, short-circuiting producer-store-load-consumer chains to
// producer-consumer (the dynamic analog of register allocation). Stack
// pointer decrements similarly create reverse addi entries so bypassing can
// bootstrap across calls when RENO.CF is not present to fold them.
//
// A tuple dies when a register it names is reclaimed: a recycled register
// no longer holds the value the tuple describes. Hardware performs this
// lazily, in the integration test itself, and so does the table: it keeps
// a reclaim generation per physical register, each tuple records the
// generations of the three registers it names, and a probe passes over a
// tuple whose generations are no longer current. A reclaim is one counter
// increment, with no search for the tuples it kills.
//
// Eliminated loads are speculative (memory may have been written in
// between) and re-execute at retirement; ALU integrations are exact by name
// equivalence and need no verification. To let the trace-driven simulator
// adjudicate load re-execution, entries carry the value they represent —
// this is the simulation stand-in for the retirement-port re-execution
// described in Section 2.2.
package it

import (
	"encoding/json"
	"fmt"
	"slices"

	"reno/internal/isa"
	"reno/internal/renamer"
)

// Entry is one IT tuple.
type Entry struct {
	Valid bool
	// Reverse marks a tuple created by a store (or stack-pointer
	// decrement) for its anticipated counterpart, rather than by the
	// instruction whose signature it matches (Section 2.2).
	Reverse bool
	Op      isa.Op
	Imm     int32
	In1     renamer.Mapping
	In2     renamer.Mapping
	Out     renamer.Mapping

	// Value is the 64-bit value this tuple's output register (plus
	// displacement) holds; used to adjudicate speculative load integration
	// at retirement.
	Value uint64

	age uint64    // for LRU within a set
	gen [3]uint64 // reclaim generations of In1.P, In2.P, Out.P at insert
}

// Policy selects which instruction classes the IT serves.
type Policy int

const (
	// PolicyLoadsOnly: the default RENO configuration — the IT holds load
	// tuples only (forward load entries and reverse entries from stores);
	// ALU elimination is left to RENO.CF. Halves IT size traffic (§2.4).
	PolicyLoadsOnly Policy = iota
	// PolicyFull: classical register integration — ALU tuples too.
	PolicyFull
)

func (p Policy) String() string {
	if p == PolicyLoadsOnly {
		return "loads-only"
	}
	return "full"
}

// MarshalJSON renders the policy by name ("loads-only", "full") so machine
// spec files read declaratively rather than as magic integers.
func (p Policy) MarshalJSON() ([]byte, error) {
	switch p {
	case PolicyLoadsOnly, PolicyFull:
		return json.Marshal(p.String())
	}
	return nil, fmt.Errorf("it: unknown policy %d", int(p))
}

// UnmarshalJSON accepts the policy names emitted by MarshalJSON (plus the
// underscore spelling) and, for compatibility with integer-tagged specs, the
// raw enum values.
func (p *Policy) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "loads-only", "loads_only":
			*p = PolicyLoadsOnly
			return nil
		case "full":
			*p = PolicyFull
			return nil
		}
		return fmt.Errorf("it: unknown policy %q (want \"loads-only\" or \"full\")", s)
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("it: policy must be a name or integer, got %s", b)
	}
	switch Policy(n) {
	case PolicyLoadsOnly, PolicyFull:
		*p = Policy(n)
		return nil
	}
	return fmt.Errorf("it: unknown policy %d", n)
}

// Table is the set-associative integration table. Entries are stored flat
// (set-major, sets×ways): one allocation.
type Table struct {
	sets    int
	ways    int
	pow2    bool   // sets is a power of two: setOf masks with mask
	mask    uint64 // sets-1 when pow2
	entries []Entry
	policy  Policy
	tick    uint64

	// gen counts the reclaims of each physical register. A reclaim needs
	// a committed instruction, so a uint64 does not wrap in any run, and
	// a tuple whose recorded generations all still match names no
	// register reclaimed since its insert.
	gen []uint64

	// Stats (E9: size/bandwidth accounting).
	Lookups uint64
	Hits    uint64
	Inserts uint64
}

// New builds an IT with the given total entries and associativity over a
// file of physRegs physical registers. The paper's configuration is 512
// entries, 2-way.
func New(totalEntries, ways, physRegs int, policy Policy) *Table {
	t := &Table{}
	t.Reset(totalEntries, ways, physRegs, policy)
	return t
}

// Reset empties t and gives it the geometry and policy New builds for the
// same arguments, with every counter zeroed. It keeps t's entry and
// generation arrays when they are large enough.
func (t *Table) Reset(totalEntries, ways, physRegs int, policy Policy) {
	sets := totalEntries / ways
	if sets < 1 {
		sets = 1
	}
	entries := slices.Grow(t.entries[:0], sets*ways)[:sets*ways]
	gen := slices.Grow(t.gen[:0], physRegs)[:physRegs]
	clear(entries)
	clear(gen)
	*t = Table{sets: sets, ways: ways, policy: policy, entries: entries, gen: gen}
	if sets&(sets-1) == 0 {
		t.pow2, t.mask = true, uint64(sets-1)
	}
}

// setBounds returns the way-slice bounds of a set.
func (t *Table) setBounds(set int) (lo, hi int) {
	lo = set * t.ways
	return lo, lo + t.ways
}

// PolicyOf returns the table's policy.
func (t *Table) PolicyOf() Policy { return t.policy }

// Size returns total entry capacity.
func (t *Table) Size() int { return t.sets * t.ways }

// hash indexes by operation, immediate, and first input mapping.
func (t *Table) hash(op isa.Op, imm int32, in1 renamer.Mapping) int {
	h := uint64(op)*0x9e3779b97f4a7c15 ^
		uint64(uint32(imm))*0xc2b2ae3d27d4eb4f ^
		uint64(in1.P)*0x165667b19e3779f9 ^
		uint64(uint32(in1.D))*0x27d4eb2f165667c5
	h ^= h >> 29
	return t.setOf(h)
}

// setOf maps a hash to its set, h mod sets: a mask when the set count is a
// power of two (the paper's 512-entry 2-way table has 256 sets), a
// division otherwise.
//
//reno:hotpath
func (t *Table) setOf(h uint64) int {
	if t.pow2 {
		return int(h & t.mask)
	}
	return int(h % uint64(t.sets))
}

// Covers reports whether the policy admits tuples for instructions of
// class cls (for lookups and inserts alike).
//
//reno:hotpath
func (t *Table) Covers(cls isa.Class) bool {
	switch cls {
	case isa.ClassLoad, isa.ClassStore:
		return true
	case isa.ClassIntALU:
		return t.policy == PolicyFull
	default:
		return false
	}
}

// live reports whether e holds a tuple: inserted, not invalidated by
// signature, and naming no register reclaimed since its insert.
//
//reno:hotpath
func (t *Table) live(e *Entry) bool {
	return e.Valid && e.gen[0] == t.gen[e.In1.P] && e.gen[1] == t.gen[e.In2.P] && e.gen[2] == t.gen[e.Out.P]
}

// probe returns the live tuple with the given signature, or nil, and the
// set the signature indexes.
//
//reno:hotpath
func (t *Table) probe(op isa.Op, imm int32, in1, in2 renamer.Mapping) (hit *Entry, set []Entry) {
	lo, hi := t.setBounds(t.hash(op, imm, in1))
	set = t.entries[lo:hi]
	for i := range set {
		e := &set[i]
		if e.Op == op && e.Imm == imm && e.In1 == in1 && e.In2 == in2 && t.live(e) {
			return e, set
		}
	}
	return nil, set
}

// Lookup probes for a tuple matching the renamed operation. It counts one
// IT access. On a hit the matched output mapping, the entry's value oracle
// and its reverse-tuple flag are returned, so callers can classify a hit
// as CSE (forward) versus speculative memory bypassing (reverse).
func (t *Table) Lookup(op isa.Op, imm int32, in1, in2 renamer.Mapping) (out renamer.Mapping, value uint64, reverse, hit bool) {
	t.Lookups++
	e, _ := t.probe(op, imm, in1, in2)
	if e == nil {
		return renamer.Mapping{}, 0, false, false
	}
	t.Hits++
	t.tick++
	e.age = t.tick
	return e.Out, e.Value, e.Reverse, true
}

// Peek probes for a tuple like Lookup but without side effects: no
// access/hit statistics and no LRU refresh. The shared elimination engine
// uses it to pre-adjudicate speculative load bypassing (will this load's
// integration promise the right value?) without perturbing the table state
// that the real rename-time lookup will observe and account.
func (t *Table) Peek(op isa.Op, imm int32, in1, in2 renamer.Mapping) (out renamer.Mapping, value uint64, reverse, hit bool) {
	if e, _ := t.probe(op, imm, in1, in2); e != nil {
		return e.Out, e.Value, e.Reverse, true
	}
	return renamer.Mapping{}, 0, false, false
}

// Insert installs a tuple. A live tuple with the same signature is
// refreshed in place; otherwise the tuple takes the set's first way that
// holds no live tuple, or else its least recently used way.
func (t *Table) Insert(e Entry) {
	t.Inserts++
	t.tick++
	e.Valid, e.age = true, t.tick
	e.gen = [3]uint64{t.gen[e.In1.P], t.gen[e.In2.P], t.gen[e.Out.P]}
	slot, set := t.probe(e.Op, e.Imm, e.In1, e.In2)
	if slot == nil {
		slot = &set[0]
		for i := range set {
			if !t.live(&set[i]) {
				slot = &set[i]
				break
			}
			if set[i].age < slot.age {
				slot = &set[i]
			}
		}
	}
	*slot = e
}

// InvalidatePhys retires every tuple that mentions physical register p as
// an input or output. Called when p is reclaimed (its count reaches zero):
// a recycled register no longer holds the value the tuple describes.
//
// Hardware implementations perform this lazily via the integration test,
// and so does the table: the reclaim advances p's generation, and live
// passes over every tuple that recorded an older one.
//
//reno:hotpath
func (t *Table) InvalidatePhys(p int) { t.gen[p]++ }

// InvalidateSignature removes a specific tuple (used when load re-execution
// detects a stale bypass so the same entry does not mis-integrate again).
func (t *Table) InvalidateSignature(op isa.Op, imm int32, in1, in2 renamer.Mapping) {
	if e, _ := t.probe(op, imm, in1, in2); e != nil {
		e.Valid = false
	}
}

// Occupancy returns the number of live entries (tests and stats).
func (t *Table) Occupancy() int {
	n := 0
	for i := range t.entries {
		if t.live(&t.entries[i]) {
			n++
		}
	}
	return n
}
