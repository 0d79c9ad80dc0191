package emu

import (
	"maps"
	"math/rand"
	"sync"
	"testing"
)

// Step kinds of FuzzMemoryMatchesFlat. Each step is four bytes: kind,
// machine, address and value.
const (
	memStore   = iota // store the value on the machine
	memLoad           // load on the machine
	memRestart        // release the machine; start it again from a snapshot
	memFreeze         // freeze the machine into a new snapshot and restart from it
	memStepKinds
)

// fuzzOffsets are the word offsets within a page the fuzzer addresses:
// both ends of the page and a few words in between.
var fuzzOffsets = [16]uint64{0, 1, 2, 3, 7, 8, 63, 64, 511, 512, 1000, 2047, 2048, 4000, 4094, 4095}

// fuzzAddr maps an address byte to one of 16 words on each of pages 0-4:
// the first snapshot holds pages 0-2, and 3 and 4 start empty.
func fuzzAddr(b byte) uint64 {
	return uint64(b>>4)%5<<pageShift | fuzzOffsets[b&15]
}

// flatMachine starts a machine from s with a private copy of every page
// of the snapshot and nothing shared: the reference copy-on-write
// machines must match.
func flatMachine(s *Snapshot) *Machine {
	c := s.m
	c.Mem = &Memory{pages: map[uint64]*[pageWords]uint64{}}
	for pn, pg := range s.m.Mem.pages {
		cp := *pg
		c.Mem.pages[pn] = &cp
	}
	return &c
}

// snapshotted is a snapshot with the hash it was taken at and a model of
// its memory: the value of each word ever stored, zero or not.
type snapshotted struct {
	s     *Snapshot
	hash  uint64
	words map[uint64]uint64
}

// runner is one machine of FuzzMemoryMatchesFlat: the copy-on-write
// machine, its flat reference and the model of its memory, all started
// from snapshot from.
type runner struct {
	cow, flat *Machine
	words     map[uint64]uint64
	from      int
}

func (r *runner) start(snaps []snapshotted, from int) {
	s := snaps[from]
	r.cow, r.flat, r.from = s.s.Machine(), flatMachine(s.s), from
	r.words = maps.Clone(s.words)
}

// FuzzMemoryMatchesFlat drives three machines started from one snapshot
// through random loads, stores, releases, restarts and freezes, and after
// every step compares each machine's loads and StateHash with a machine
// started from a full copy of the snapshot's pages and with a model of
// its memory. Every snapshot keeps the hash it was taken at (the
// machine's own snapshot, which holds every page it shares, is checked
// after each step and all of them after each restart or freeze); after a
// restart, which reuses the released machine's pages, every word ever
// stored reads as the snapshot has it (zero on a page the snapshot lacks);
// and a copy-on-write machine freezes into a snapshot of the same state.
// An input is at most 64 steps and makes at most 4 snapshots, which keeps
// the hashing of whole pages after every step to a few milliseconds.
func FuzzMemoryMatchesFlat(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for range 4 {
		var seed []byte
		for range 64 {
			seed = append(seed, byte(rng.Intn(memStepKinds)), byte(rng.Intn(3)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		first := New(nil)
		words := map[uint64]uint64{}
		for pn := range uint64(3) {
			for i, off := range fuzzOffsets {
				if i%3 != 0 {
					continue
				}
				a := pn<<pageShift | off
				first.Mem.Store(a, pn*100+off+1)
				words[a] = pn*100 + off + 1
			}
		}
		hash := first.StateHash()
		snaps := []snapshotted{{first.Freeze(), hash, words}}
		runners := make([]runner, 3)
		for i := range runners {
			runners[i].start(snaps, 0)
		}
		stored := map[uint64]bool{}
		for a := range words {
			stored[a] = true
		}
		check := func(step int, r *runner, addrs map[uint64]bool) {
			t.Helper()
			for a := range addrs {
				want := r.words[a]
				if got, flat := r.cow.Mem.Load(a), r.flat.Mem.Load(a); got != want || flat != want {
					t.Fatalf("step %d: word %#x reads %#x copy-on-write and %#x flat; want %#x", step, a, got, flat, want)
				}
			}
			if got, want := r.cow.StateHash(), r.flat.StateHash(); got != want {
				t.Fatalf("step %d: copy-on-write machine hashes %016x, flat %016x", step, got, want)
			}
		}
		unchanged := func(step int, snaps []snapshotted) {
			t.Helper()
			for _, s := range snaps {
				if got := s.s.StateHash(); got != s.hash {
					t.Fatalf("step %d: a snapshot hashes %016x, taken at %016x", step, got, s.hash)
				}
			}
		}
		for step := 0; step+4 <= len(steps) && step < 4*64; step += 4 {
			kind, k := int(steps[step])%memStepKinds, int(steps[step+1])%len(runners)
			addr, val := fuzzAddr(steps[step+2]), uint64(steps[step+3])*0x0101010101010101
			r := &runners[k]
			switch kind {
			case memStore:
				r.cow.Mem.Store(addr, val)
				r.flat.Mem.Store(addr, val)
				r.words[addr] = val
				stored[addr] = true
			case memLoad:
				// check below loads addr
			case memRestart:
				r.cow.Release()
				r.start(snaps, int(steps[step+3])%len(snaps))
				check(step, r, stored)
				unchanged(step, snaps)
			case memFreeze:
				if len(snaps) == 4 {
					break
				}
				want := r.flat.StateHash()
				s := r.cow.Freeze()
				if got := s.StateHash(); got != want {
					t.Fatalf("step %d: a copy-on-write machine froze into a snapshot hashing %016x; want %016x", step, got, want)
				}
				snaps = append(snaps, snapshotted{s, want, r.words})
				r.start(snaps, len(snaps)-1)
				check(step, r, stored)
				unchanged(step, snaps)
			}
			check(step, r, map[uint64]bool{addr: true})
			unchanged(step, snaps[r.from:r.from+1])
		}
		for i := range runners {
			check(len(steps), &runners[i], stored)
		}
		unchanged(len(steps), snaps)
	})
}

// TestMachinesShareSnapshotConcurrently: goroutines starting machines
// from one snapshot at once, each storing over the snapshot's pages and
// fresh ones, reading its own values back and releasing the machine for
// another to reuse its pages, each see only their own stores, and the
// snapshot is unchanged. The race step runs it to check that no machine
// writes a page it shares.
func TestMachinesShareSnapshotConcurrently(t *testing.T) {
	m := New(nil)
	for pn := range uint64(4) {
		m.Mem.Store(pn<<pageShift|pn, pn+1)
	}
	hash := m.StateHash()
	s := m.Freeze()
	var wg sync.WaitGroup
	for g := range uint64(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range uint64(50) {
				c := s.Machine()
				for pn := range uint64(6) {
					c.Mem.Store(pn<<pageShift|g+8, g<<32|i)
				}
				for pn := range uint64(6) {
					if got := c.Mem.Load(pn<<pageShift | g + 8); got != g<<32|i {
						t.Errorf("goroutine %d, run %d: page %d reads %#x, want %#x", g, i, pn, got, g<<32|i)
					}
					want := uint64(0)
					if pn < 4 {
						want = pn + 1
					}
					if got := c.Mem.Load(pn<<pageShift | pn); got != want {
						t.Errorf("goroutine %d, run %d: page %d reads %#x at the snapshot's word, want %#x", g, i, pn, got, want)
					}
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
	if s.StateHash() != hash {
		t.Error("machines started from the snapshot changed it")
	}
}
