// Package refcount implements the physical register reference counting
// scheme of Section 3.1 of the RENO paper.
//
// The design eliminates the explicit free list: a register is free exactly
// when its reference count is zero. Counts track the number of times a
// physical register is used as an *output* — mapped by an architectural
// register in the map table, or held by an in-flight instruction as the
// previous mapping it will free at commit. Counts do not track input uses.
//
// Counters are sized so overflow is impossible: the maximum sharing degree
// is one mapping per architectural register plus one hold per in-flight
// instruction (Section 3.1), so a uint16 suffices for any realistic core
// (32 + ROB size << 65535). Overflow is nevertheless checked and reported
// so that a misconfigured core fails loudly instead of silently corrupting
// state.
package refcount

import (
	"fmt"
	"math/bits"
	"slices"
)

// Table is a physical register reference count table.
//
// Register 0 is reserved as the hardwired zero register's physical home: it
// is permanently allocated (count pinned >= 1) and is never returned by
// Alloc.
type Table struct {
	counts []uint16
	free   int // number of registers with count == 0

	// freeBits has bit p set exactly when register p is free (count zero
	// and not ZeroReg), so Alloc searches a word at a time.
	freeBits []uint64

	// allocCursor rotates the search start so allocation spreads across the
	// file the way a circular free list would.
	allocCursor int

	Allocs   uint64
	Shares   uint64
	MaxInUse int
}

// ZeroReg is the physical register permanently holding zero.
const ZeroReg = 0

// New creates a table for n physical registers. Register ZeroReg starts
// with count 1 (pinned); all others are free.
func New(n int) *Table {
	t := &Table{}
	t.Reset(n)
	return t
}

// Reset sizes t for n physical registers and frees every one of them but
// the pinned ZeroReg, with the statistics zeroed: t is then as New(n)
// builds it. It keeps t's arrays when they are large enough.
func (t *Table) Reset(n int) {
	if n < 2 {
		panic(fmt.Sprintf("refcount: need at least 2 physical registers, got %d", n))
	}
	// Both arrays change on every allocation and reclaim; whole cache
	// lines keep them off the lines other objects use.
	words := (n + 63) / 64
	counts := slices.Grow(t.counts[:0], (n+31)&^31)[:n]
	freeBits := slices.Grow(t.freeBits[:0], (words+7)&^7)[:words]
	clear(counts)
	clear(freeBits)
	*t = Table{counts: counts, freeBits: freeBits, free: n - 1, MaxInUse: 1}
	t.counts[ZeroReg] = 1
	for p := 0; p < n; p++ {
		if p != ZeroReg {
			t.freeBits[p>>6] |= 1 << (p & 63)
		}
	}
}

// Size returns the number of physical registers.
func (t *Table) Size() int { return len(t.counts) }

// Free returns the number of free (count zero) registers.
func (t *Table) Free() int { return t.free }

// InUse returns the number of allocated registers.
func (t *Table) InUse() int { return len(t.counts) - t.free }

// Count returns the reference count of p.
func (t *Table) Count(p int) int { return int(t.counts[p]) }

// Alloc claims a free physical register with an initial count of 1.
// ok is false when the file is exhausted (a structural stall upstream).
// It picks the first free register at or after the cursor, wrapping
// around the file, and moves the cursor just past it: the order a
// circular free list would hand registers out in.
//
//reno:hotpath
func (t *Table) Alloc() (p int, ok bool) {
	if t.free == 0 {
		return 0, false
	}
	w := t.allocCursor >> 6
	word := t.freeBits[w] &^ (1<<(t.allocCursor&63) - 1) // bits at or after the cursor
	for i := 0; word == 0; i++ {
		// After wrapping, the cursor's own word is searched again in full.
		if i == len(t.freeBits) {
			// t.free said there was one; reaching here is a bookkeeping bug.
			panic("refcount: free count inconsistent with table")
		}
		if w++; w == len(t.freeBits) {
			w = 0
		}
		word = t.freeBits[w]
	}
	c := w<<6 + bits.TrailingZeros64(word)
	t.freeBits[w] &^= 1 << (c & 63)
	t.counts[c] = 1
	t.free--
	if t.allocCursor = c + 1; t.allocCursor == len(t.counts) {
		t.allocCursor = 0
	}
	t.Allocs++
	if u := t.InUse(); u > t.MaxInUse {
		t.MaxInUse = u
	}
	return c, true
}

// Inc adds a reference to p: a RENO sharing operation (a second map table
// entry or an in-flight hold now points at p). The pinned zero register's
// count is not tracked — it can never be freed, so counting its references
// would only risk saturation.
func (t *Table) Inc(p int) {
	if p == ZeroReg {
		t.Shares++
		return
	}
	if t.counts[p] == 0 {
		panic(fmt.Sprintf("refcount: Inc of free register p%d", p))
	}
	if t.counts[p] == ^uint16(0) {
		panic(fmt.Sprintf("refcount: counter overflow on p%d", p))
	}
	t.counts[p]++
	t.Shares++
}

// Dec removes a reference from p, freeing it when the count reaches zero.
// The pinned zero register is never freed.
func (t *Table) Dec(p int) (freed bool) {
	if p == ZeroReg {
		return false
	}
	if t.counts[p] == 0 {
		panic(fmt.Sprintf("refcount: Dec of free register p%d", p))
	}
	t.counts[p]--
	if t.counts[p] == 0 {
		t.free++
		t.freeBits[p>>6] |= 1 << (p & 63)
		return true
	}
	return false
}

// CheckInvariant verifies that free and the free bitmap match the count
// array; tests use it after randomized operation sequences.
func (t *Table) CheckInvariant() error {
	free := 0
	for p, c := range t.counts {
		bit := t.freeBits[p>>6]&(1<<(p&63)) != 0
		if p == ZeroReg {
			if c == 0 {
				return fmt.Errorf("refcount: zero register unpinned")
			}
			if bit {
				return fmt.Errorf("refcount: zero register marked free")
			}
			continue
		}
		if c == 0 {
			free++
		}
		if bit != (c == 0) {
			return fmt.Errorf("refcount: p%d has count %d but free bit %v", p, c, bit)
		}
	}
	if free != t.free {
		return fmt.Errorf("refcount: free=%d but table says %d", t.free, free)
	}
	return nil
}
