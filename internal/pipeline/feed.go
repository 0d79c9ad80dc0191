package pipeline

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"reno/internal/emu"
	"reno/internal/isa"
)

// Feed is the trace feed between the functional emulator and a backend:
// it owns a machine positioned at the first timed instruction, normally
// one started from the program's post-warmup snapshot (the paper's
// sampling-warmup methodology). Next hands out the timed dynamic
// instructions in program order until the program halts, the budget is
// spent or the emulator faults, folding each into the commit-stream hash.
// The detailed pipeline pulls from it (Run); the functional backend fills
// chunks of records from it for every configuration sharing the stream.
type Feed struct {
	m      *emu.Machine
	done   <-chan struct{}
	budget uint64 // timed instructions (0 = to completion)
	end    uint64 // the emulator's ICount once the budget is spent
	hash   uint64
	err    error
}

// Warm executes the first warmup dynamic instructions of code functionally
// on a fresh machine and returns it, ready for NewFeed. It polls ctx every
// emu.PollInterval instructions and returns ctx's error once it is done.
func Warm(ctx context.Context, code []isa.Inst, warmup uint64) (*emu.Machine, error) {
	m := emu.New(code)
	ok, err := m.Advance(ctx.Done(), warmup, emu.NoStop)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ctx.Err()
	}
	return m, nil
}

// NewFeed returns a feed that takes over m and hands out its next budget
// instructions (0 = no limit) as the timed region. Canceled polls ctx.
func NewFeed(ctx context.Context, m *emu.Machine, budget uint64) *Feed {
	f := &Feed{m: m, done: ctx.Done(), budget: budget, end: math.MaxUint64, hash: fnv.New64a().Sum64()}
	if budget > 0 {
		f.end = m.ICount + budget
	}
	return f
}

// Canceled reports whether the feed's context is done. It polls the
// context only once every emu.PollInterval emulator steps and otherwise
// reports false, so a loop can call it per instruction.
//
//reno:hotpath
func (f *Feed) Canceled() bool {
	if f.done == nil || f.m.ICount%emu.PollInterval != 0 {
		return false
	}
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Next fills *d with the next timed instruction: the emulator steps
// straight into the caller's record. It returns false once the program has
// halted, the budget is spent, or the emulator faulted (see Err).
//
//reno:hotpath
func (f *Feed) Next(d *emu.Dyn) bool {
	if f.m.Halted || f.m.ICount >= f.end {
		return false
	}
	if err := f.m.Step(d); err != nil {
		f.err = err
		return false
	}
	f.fold(d)
	return true
}

// Spent reports whether the feed stopped because its budget ran out.
func (f *Feed) Spent() bool { return f.m.ICount >= f.end }

// Err returns the emulator fault that ended the feed, if any.
func (f *Feed) Err() error { return f.err }

// ArchHash is the architectural state hash (emu.StateHash) of the state
// reached so far.
func (f *Feed) ArchHash() uint64 { return f.m.StateHash() }

// CommitHash is an order-sensitive 64-bit hash over every instruction Next
// has handed out: in a completed run, the committed instruction stream.
func (f *Feed) CommitHash() uint64 { return f.hash }

// Release releases f's machine (emu.Machine.Release) once the caller has
// read what it needs: nothing may use f after it, its hashes included.
func (f *Feed) Release() { f.m.Release() }

// Distinct odd multipliers per field (splitmix64/xxhash-style constants) so
// that permuting field values cannot cancel.
const (
	hashC1  = 0x9e3779b97f4a7c15
	hashC2  = 0xc2b2ae3d27d4eb4f
	hashC3  = 0x165667b19e3779f9
	hashC4  = 0x27d4eb2f165667c5
	hashC5  = 0xff51afd7ed558ccd
	hashC6  = 0xc4ceb9fe1a85ec53
	hashC7  = 0x2545f4914f6cdd1d
	hashC8  = 0xd6e8feb86659fd93
	hashMix = 0xbf58476d1ce4e5b9
)

// fold chains d into the commit-stream hash. It compresses the record's
// fields (PC, instruction, next PC, effective address, branch outcome,
// result and source values) into two words with independent
// (instruction-level parallel) multiplies, then chains them with a
// multiply-xorshift step: order-sensitive like a polynomial hash, but an
// order of magnitude cheaper than byte-wise FNV on this hot path.
//
//reno:hotpath
func (f *Feed) fold(d *emu.Dyn) {
	iw := uint64(d.Inst.Op)<<40 | uint64(d.Inst.Rd)<<32 |
		uint64(d.Inst.Rs)<<24 | uint64(d.Inst.Rt)<<16
	a := d.PC*hashC1 ^ d.NextPC*hashC2 ^ d.EA*hashC3 ^ iw*hashC4
	b := d.Result*hashC5 ^ d.SrcVals[0]*hashC6 ^ d.SrcVals[1]*hashC7 ^
		uint64(uint32(d.Inst.Imm))*hashC8
	if d.Taken {
		b ^= hashC1
	}
	h := f.hash
	h = (h ^ a) * hashMix
	h ^= h >> 29
	h = (h ^ b) * hashMix
	h ^= h >> 29
	f.hash = h
}

// sims holds finished runs' simulators for Run to reset and reuse, so a
// sweep of runs allocates its caches, predictors, engine and buffers
// about once per worker rather than once per run.
var sims sync.Pool

// Run times f's instructions on the detailed pipeline of cfg under ctx and
// opts, stopping once the feed's budget has committed. On cancellation it
// returns the partial Result together with ctx's error; f's hashes then
// cover every instruction fetched, which runs ahead of what committed, so
// they compare with no other run's. Run does not release f.
//
// Run takes a simulator from a pool, resets it for cfg and returns it to
// the pool when the run ends. The Result shares no memory with it: a
// critical-path analyzer in Result.CPA holds the run's totals but not its
// record window.
func Run(ctx context.Context, cfg Config, f *Feed, opts RunOptions) (*Result, error) {
	s, _ := sims.Get().(*Sim)
	if s == nil {
		s = new(Sim)
	}
	res, err := s.run(ctx, cfg, f, opts)
	sims.Put(s)
	return res, err
}

// run is Run on the simulator s, whatever it simulated before.
func (s *Sim) run(ctx context.Context, cfg Config, f *Feed, opts RunOptions) (*Result, error) {
	s.reset(cfg, f.Next)
	s.budget = f.budget
	res, err := s.RunContext(ctx, opts)
	s.next = nil // the feed, and the machine it holds, stay the caller's
	if err == nil && f.err != nil {
		return nil, fmt.Errorf("pipeline trace feed: %w", f.err)
	}
	if res != nil {
		res = res.detached()
	}
	return res, err
}
