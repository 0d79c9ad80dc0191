// Package emu implements the AXP32 architectural (functional) emulator.
//
// The emulator executes programs sequentially and precisely. It serves two
// roles in the reproduction:
//
//  1. Oracle: the cycle-level pipeline must produce identical architectural
//     state whether RENO is enabled or not, and both must match the emulator.
//  2. Trace feed: the timing simulator is trace-driven (execute-at-fetch);
//     the emulator supplies the committed dynamic instruction stream with
//     resolved addresses and branch outcomes.
//
// New predecodes the code image once (isa.Predecode, one isa.Facts per
// PC). Step executes from those records, reading an instruction's sources
// from them, and copies each into the Dyn it fills, so the engine and the
// pipeline downstream read the same answers without asking the opcode
// table again. Machines started from one Snapshot share the predecoded
// slice read-only.
//
// They share the snapshot's memory pages as well, copy-on-write: a
// machine reads a snapshot page in place until its first store to it,
// which copies that page alone (Memory). Release hands the pages a
// finished machine owns to later machines; nothing may touch a machine,
// or a feed holding it, after its release.
//
//reno:deterministic
package emu

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"reno/internal/isa"
)

// Memory is a sparse, paged, word-addressed (8-byte word) data memory. Pages
// are allocated on first touch and initialized to zero, so freestanding
// programs can use any address. The zero Memory is empty and ready to use.
//
// A machine started from a Snapshot does not copy the snapshot's pages: it
// reads them in place through base, which it never writes, and its first
// Store to one of them copies that page alone into pages. Its contents are
// pages over base: a page in pages hides base's page of the same number.
// Pages a memory owns (those in pages) go back to a free list when its
// machine is released (Machine.Release), and the next page a store needs
// comes from there.
//
// Accesses are strongly page-local (array sweeps, stack frames), so Memory
// keeps a one-entry cache of the last page touched: the common case costs a
// compare instead of a map lookup, which matters because the trace feed runs
// Load/Store once per simulated memory instruction. The cache makes even
// Load a mutating operation: a Memory must not be shared between goroutines
// without external synchronization (each sweep worker owns its emulator).
type Memory struct {
	pages    map[uint64]*[pageWords]uint64 // owned: written in place
	base     map[uint64]*[pageWords]uint64 // a snapshot's: only read
	lastPN   uint64
	lastPage *[pageWords]uint64
	lastOwn  bool // lastPage is in pages, so Store may write it
}

const (
	pageShift = 12 // 4096 words (32KB) per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// freePages holds the owned pages of released machines for later stores to
// reuse, so a sweep of runs allocates its written pages about once per
// worker rather than once per run.
var freePages sync.Pool

// NewMemory returns an empty zero-filled memory.
func NewMemory() *Memory { return &Memory{} }

// page returns the page holding addr, or nil for a read of a page that
// holds nothing. For a write it returns m's own page, copying the shared
// one or making a zero one first.
func (m *Memory) page(addr uint64, write bool) *[pageWords]uint64 {
	pn := addr >> pageShift
	if p := m.lastPage; p != nil && pn == m.lastPN && (m.lastOwn || !write) {
		return p
	}
	p, own := m.pages[pn], true
	if p == nil {
		p, own = m.base[pn], false
		if write {
			p, own = m.own(pn, p), true
		}
	}
	if p != nil {
		m.lastPN, m.lastPage, m.lastOwn = pn, p, own
	}
	return p
}

// own gives m a page of its own at page number pn, from the free list when
// it has one: a copy of shared, or zeros when shared is nil.
func (m *Memory) own(pn uint64, shared *[pageWords]uint64) *[pageWords]uint64 {
	p, _ := freePages.Get().(*[pageWords]uint64)
	if p == nil {
		p = new([pageWords]uint64)
	} else if shared == nil {
		clear(p[:])
	}
	if shared != nil {
		*p = *shared
	}
	if m.pages == nil {
		m.pages = map[uint64]*[pageWords]uint64{}
	}
	m.pages[pn] = p
	return p
}

// Load reads the 64-bit word at word address addr.
func (m *Memory) Load(addr uint64) uint64 {
	if p := m.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Store writes the 64-bit word at word address addr.
func (m *Memory) Store(addr, val uint64) {
	m.page(addr, true)[addr&pageMask] = val
}

// Machine is the architectural state of an AXP32 processor.
type Machine struct {
	Regs [isa.NumLogicalRegs]uint64
	PC   uint64
	Mem  *Memory
	Code []isa.Inst // set by New, together with facts

	// facts is Code predecoded, one record per PC. Machines started from
	// one Snapshot share it read-only.
	facts []isa.Facts

	Halted bool
	ICount uint64 // dynamic instructions retired
}

// New creates a machine for the given code image, predecoding each of its
// instructions once. The stack pointer starts high so that
// downward-growing stacks never collide with heap addresses the synthetic
// workloads use.
func New(code []isa.Inst) *Machine {
	facts := make([]isa.Facts, len(code))
	for pc, in := range code {
		facts[pc] = isa.Predecode(in)
	}
	m := &Machine{Mem: NewMemory(), Code: code, facts: facts}
	m.Regs[isa.RSP] = 1 << 30
	return m
}

// ErrNoHalt is returned by Run when the step limit is hit before OpHalt.
var ErrNoHalt = errors.New("emu: instruction limit reached before halt")

// ErrPCRange is returned when the PC leaves the code image.
var ErrPCRange = errors.New("emu: PC out of code range")

var errHalted = errors.New("emu: machine is halted")

// Dyn is one dynamic (executed) instruction record, as consumed by the
// timing simulator and the workload-mix analyzer.
type Dyn struct {
	PC      uint64    // word address of the instruction
	Inst    isa.Inst  // decoded instruction
	NextPC  uint64    // architectural next PC (branch outcome)
	EA      uint64    // effective address for loads/stores
	Taken   bool      // for control transfers
	Facts   isa.Facts // isa.Predecode(Inst); fills Taken's padding
	Result  uint64    // destination value (0 when no destination)
	SrcVals [2]uint64
}

// Step executes one instruction, filling *d with its dynamic record. It
// returns an error, leaving *d unspecified, if the machine has halted or
// the PC is out of range. Filling a caller-owned record lets the trace
// feed hand it to its consumer without a copy; every field is reset one by
// one, which is cheaper here than assigning a composite literal.
//
//reno:hotpath
func (m *Machine) Step(d *Dyn) error {
	if m.Halted {
		return errHalted
	}
	if m.PC >= uint64(len(m.Code)) {
		//lint:ignore hotalloc fatal-error path: the feed stops at its first fault
		return fmt.Errorf("%w: pc=%d len=%d", ErrPCRange, m.PC, len(m.Code))
	}
	in, f := m.Code[m.PC], m.facts[m.PC]
	d.PC, d.Inst, d.Facts, d.NextPC = m.PC, in, f, m.PC+1
	d.EA, d.Taken, d.Result = 0, false, 0

	rs, rt := f.Sources()
	a := m.Regs[rs]
	b := m.Regs[rt]
	d.SrcVals[0], d.SrcVals[1] = a, b

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		m.Halted = true
	case isa.OpAddi:
		m.writeRd(d, a+uint64(int64(in.Imm)))
	case isa.OpSubi:
		m.writeRd(d, a-uint64(int64(in.Imm)))
	case isa.OpAndi:
		m.writeRd(d, a&uint64(uint16(in.Imm)))
	case isa.OpOri:
		m.writeRd(d, a|uint64(uint16(in.Imm)))
	case isa.OpXori:
		m.writeRd(d, a^uint64(uint16(in.Imm)))
	case isa.OpSlli:
		m.writeRd(d, a<<(uint64(in.Imm)&63))
	case isa.OpSrli:
		m.writeRd(d, a>>(uint64(in.Imm)&63))
	case isa.OpSrai:
		m.writeRd(d, uint64(int64(a)>>(uint64(in.Imm)&63)))
	case isa.OpLui:
		m.writeRd(d, uint64(uint16(in.Imm))<<16)
	case isa.OpAdd, isa.OpFAdd:
		m.writeRd(d, a+b)
	case isa.OpSub:
		m.writeRd(d, a-b)
	case isa.OpAnd:
		m.writeRd(d, a&b)
	case isa.OpOr:
		m.writeRd(d, a|b)
	case isa.OpXor:
		m.writeRd(d, a^b)
	case isa.OpSll:
		m.writeRd(d, a<<(b&63))
	case isa.OpSrl:
		m.writeRd(d, a>>(b&63))
	case isa.OpSra:
		m.writeRd(d, uint64(int64(a)>>(b&63)))
	case isa.OpSlt:
		if int64(a) < int64(b) {
			m.writeRd(d, 1)
		} else {
			m.writeRd(d, 0)
		}
	case isa.OpSltu:
		if a < b {
			m.writeRd(d, 1)
		} else {
			m.writeRd(d, 0)
		}
	case isa.OpMul, isa.OpFMul:
		m.writeRd(d, a*b)
	case isa.OpDiv:
		if b == 0 {
			m.writeRd(d, 0)
		} else {
			m.writeRd(d, uint64(int64(a)/int64(b)))
		}
	case isa.OpLd:
		d.EA = a + uint64(int64(in.Imm))
		m.writeRd(d, m.Mem.Load(d.EA))
	case isa.OpSt:
		// For stores rs is the base, rt the data: Sources already ordered
		// them (base, data).
		d.EA = a + uint64(int64(in.Imm))
		m.Mem.Store(d.EA, b)
		d.Result = b
	case isa.OpBeq:
		d.Taken = a == b
	case isa.OpBne:
		d.Taken = a != b
	case isa.OpBlt:
		d.Taken = int64(a) < int64(b)
	case isa.OpBge:
		d.Taken = int64(a) >= int64(b)
	case isa.OpJmp:
		d.Taken = true
	case isa.OpJal:
		d.Taken = true
		m.writeRd(d, m.PC+1)
	case isa.OpJr:
		d.Taken = true
		d.NextPC = a
	case isa.OpJalr:
		d.Taken = true
		d.NextPC = a
		m.writeRd(d, m.PC+1)
	default:
		//lint:ignore hotalloc fatal-error path: the feed stops at its first fault
		return fmt.Errorf("emu: unimplemented opcode %v at pc %d", in.Op, m.PC)
	}

	switch in.Op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if d.Taken {
			d.NextPC = isa.Target(m.PC, in)
		}
	case isa.OpJmp, isa.OpJal:
		d.NextPC = isa.Target(m.PC, in)
	}

	m.PC = d.NextPC
	m.ICount++
	return nil
}

// writeRd records v as d's result and writes it to d's destination
// register (a write to RZero is dropped).
//
//reno:hotpath
func (m *Machine) writeRd(d *Dyn, v uint64) {
	d.Result = v
	if d.Inst.Rd != isa.RZero {
		m.Regs[d.Inst.Rd] = v
	}
}

// Run executes until halt or until limit instructions have retired.
//
//lint:ignore ctxflow bounded synchronous step loop; cancellation happens at cycle granularity in pipeline.RunContext
func (m *Machine) Run(limit uint64) error {
	if _, err := m.Advance(nil, limit, NoStop); err != nil {
		return err
	}
	if !m.Halted {
		return fmt.Errorf("%w (limit %d)", ErrNoHalt, limit)
	}
	return nil
}

// Trace executes up to limit instructions, invoking fn for each dynamic
// instruction. It stops at halt, at the limit, or when fn returns false.
func (m *Machine) Trace(limit uint64, fn func(Dyn) bool) error {
	var d Dyn
	for !m.Halted && m.ICount < limit {
		if err := m.Step(&d); err != nil {
			return err
		}
		if !fn(d) {
			return nil
		}
	}
	return nil
}

// CollectTrace runs the program from the beginning and returns its dynamic
// instruction trace, up to limit instructions. The machine is freshly
// created, so the caller's machine state is untouched.
func CollectTrace(code []isa.Inst, limit uint64) ([]Dyn, error) {
	m := New(code)
	out := make([]Dyn, 0, min(limit, 1<<20))
	err := m.Trace(limit, func(d Dyn) bool {
		out = append(out, d)
		return true
	})
	return out, err
}

// StateHash returns a cheap digest of architectural state (registers plus
// touched-memory contents) for equivalence checks between configurations.
func (m *Machine) StateHash() uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	for r, v := range m.Regs {
		if isa.Reg(r) == isa.RZero {
			continue
		}
		mix(uint64(r))
		mix(v)
	}
	// Memory pages iterate in map order; make the hash order-independent by
	// combining per-page hashes commutatively. A shared page counts only
	// where the machine has no copy of its own.
	var memH uint64
	//lint:ignore determinism per-page hashes combine commutatively, so map order cannot reach the result
	for pn, pg := range m.Mem.pages {
		memH += pageHash(pn, pg)
	}
	//lint:ignore determinism per-page hashes combine commutatively, so map order cannot reach the result
	for pn, pg := range m.Mem.base {
		if _, own := m.Mem.pages[pn]; !own {
			memH += pageHash(pn, pg)
		}
	}
	mix(memH)
	mix(m.PC)
	return h
}

// StateHash's FNV-1a-style offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// pageHash is StateHash's digest of page pn: an FNV-style hash of its
// number and of the index and value of each nonzero word.
func pageHash(pn uint64, pg *[pageWords]uint64) uint64 {
	ph := uint64(fnvOffset)
	ph ^= pn
	ph *= fnvPrime
	for i, w := range pg {
		if w != 0 {
			ph ^= uint64(i)
			ph *= fnvPrime
			ph ^= w
			ph *= fnvPrime
		}
	}
	return ph
}

// PollInterval is how many instructions Advance retires between polls of
// its done channel. Loops that step the emulator under a context poll at
// the same ICount multiples, so where a run notices cancellation does not
// depend on whether its warmup was run or restored.
const PollInterval = 4096

// NoStop is the stop PC that Advance never reaches.
const NoStop = ^uint64(0)

// Advance executes instructions until the machine halts, ICount reaches
// limit, or the PC reaches stop (checked before each instruction). It
// polls done whenever ICount is a multiple of PollInterval and returns
// false as soon as done is closed; a nil done is never polled.
//
//reno:hotpath
func (m *Machine) Advance(done <-chan struct{}, limit, stop uint64) (ok bool, err error) {
	var d Dyn
	for !m.Halted && m.ICount < limit && m.PC != stop {
		if done != nil && m.ICount%PollInterval == 0 {
			select {
			case <-done:
				return false, nil
			default:
			}
		}
		if err := m.Step(&d); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Snapshot is an immutable checkpoint of a machine's architectural state:
// registers, PC, retired-instruction count and memory pages, together with
// the code image and its predecoded facts. Its methods only read it, so
// any number of goroutines may start machines from one snapshot at once.
// The machines share its pages copy-on-write (see Memory), and none of
// them ever writes one.
type Snapshot struct {
	m Machine // never stepped: only copied and hashed; m.Mem has no base
}

// Freeze retires m into a snapshot of its current state. The snapshot
// takes over m's memory pages instead of copying them, so m is left
// halted with no code or memory and must not be used again. A machine
// started from a snapshot freezes into one map of its own pages and the
// shared pages it did not copy, which both snapshots then share.
func (m *Machine) Freeze() *Snapshot {
	s := &Snapshot{m: *m}
	if mem := m.Mem; mem.base != nil {
		pages := maps.Clone(mem.base)
		maps.Copy(pages, mem.pages)
		s.m.Mem = &Memory{pages: pages}
	}
	*m = Machine{Halted: true}
	return s
}

// Release ends m's life: the memory pages m owns go to the free list for
// later machines' stores, and m is left halted with no code or memory.
// Nothing may touch m after it, nor anything that holds m (a
// pipeline.Feed), since another machine may already be writing those
// pages. Pages m shares with a snapshot stay the snapshot's.
func (m *Machine) Release() {
	if m.Mem != nil {
		//lint:ignore determinism every page goes to the free list; map order only picks which one a later store reuses, and reuse clears or overwrites it
		for _, p := range m.Mem.pages {
			freePages.Put(p)
		}
	}
	*m = Machine{Halted: true}
}

// Machine returns a new machine in the snapshot's state, with a cold page
// cache. It copies none of the snapshot's memory: the machine reads the
// snapshot's pages in place and copies each one it first stores to.
func (s *Snapshot) Machine() *Machine {
	c := s.m
	c.Mem = &Memory{base: s.m.Mem.pages}
	return &c
}

// ICount returns the number of instructions retired when the snapshot was
// taken.
func (s *Snapshot) ICount() uint64 { return s.m.ICount }

// StateHash returns the snapshot's architectural state hash: the
// Machine.StateHash of the machine it was taken from.
func (s *Snapshot) StateHash() uint64 { return s.m.StateHash() }
