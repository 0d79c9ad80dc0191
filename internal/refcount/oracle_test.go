package refcount

import (
	"math/rand"
	"sort"
	"testing"
)

// refTable is a reference copy of the original allocator: a round-robin
// scan from the cursor with a modulo on every probe. Allocation order is
// part of every simulated number, so Table.Alloc must pick exactly the
// register this scan picks.
type refTable struct {
	counts []uint16
	free   int
	cursor int
}

func newRefTable(n int) *refTable {
	r := &refTable{counts: make([]uint16, n), free: n - 1}
	r.counts[ZeroReg] = 1
	return r
}

func (r *refTable) alloc() (int, bool) {
	if r.free == 0 {
		return 0, false
	}
	n := len(r.counts)
	for i := 0; i < n; i++ {
		c := (r.cursor + i) % n
		if c != ZeroReg && r.counts[c] == 0 {
			r.counts[c] = 1
			r.free--
			r.cursor = (c + 1) % n
			return c, true
		}
	}
	panic("refTable: free count inconsistent")
}

// TestAllocMatchesModuloScan drives Table and the reference scan through
// the same randomized Alloc/Inc/Dec sequences, on file sizes either side
// of a 64-bit word boundary, and requires every Alloc to return the same
// register. Free, MaxInUse and CheckInvariant are checked after every
// operation.
func TestAllocMatchesModuloScan(t *testing.T) {
	for _, n := range []int{33, 40, 64, 65, 96, 128, 160, 200} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			tb, ref := New(n), newRefTable(n)
			live := map[int]int{}
			maxInUse, exhausted := 1, 0
			// Alternate phases of 5n operations that favor allocation (the
			// file fills up and runs out) and release (it drains), so the
			// cursor wraps and exhaustion is crossed both ways.
			for op := 0; op < 20*n; op++ {
				allocs, incs := 6, 7 // of 10: 60% Alloc, 10% Inc, 30% Dec
				if (op/(5*n))%2 == 1 {
					allocs, incs = 2, 3 // 20% Alloc, 10% Inc, 70% Dec
				}
				switch k := rng.Intn(10); {
				case k < allocs:
					p, ok := tb.Alloc()
					q, qok := ref.alloc()
					if p != q || ok != qok {
						t.Fatalf("n=%d seed=%d op=%d: Alloc = (%d, %v), reference scan = (%d, %v)", n, seed, op, p, ok, q, qok)
					}
					if ok {
						live[p] = 1
					} else {
						exhausted++
					}
				case k < incs:
					if len(live) > 0 {
						p := pickSorted(rng, live)
						tb.Inc(p)
						ref.counts[p]++
						live[p]++
					}
				default:
					if len(live) > 0 {
						p := pickSorted(rng, live)
						freed := tb.Dec(p)
						ref.counts[p]--
						live[p]--
						if live[p] == 0 {
							delete(live, p)
							ref.free++
						}
						if freed != (live[p] == 0) {
							t.Fatalf("n=%d seed=%d op=%d: Dec(p%d) freed=%v with %d references left", n, seed, op, p, freed, live[p])
						}
					}
				}
				if u := n - ref.free; u > maxInUse {
					maxInUse = u
				}
				if tb.Free() != ref.free {
					t.Fatalf("n=%d seed=%d op=%d: Free = %d, want %d", n, seed, op, tb.Free(), ref.free)
				}
				if tb.MaxInUse != maxInUse {
					t.Fatalf("n=%d seed=%d op=%d: MaxInUse = %d, want %d", n, seed, op, tb.MaxInUse, maxInUse)
				}
				if err := tb.CheckInvariant(); err != nil {
					t.Fatalf("n=%d seed=%d op=%d: %v", n, seed, op, err)
				}
			}
			if exhausted == 0 || tb.Allocs < uint64(2*n) {
				t.Fatalf("n=%d seed=%d: %d allocations, %d on a full file: the sequence never wrapped or exhausted the file", n, seed, tb.Allocs, exhausted)
			}
		}
	}
}

// pickSorted picks a random key of m, independent of map iteration order
// so a failing seed reproduces.
func pickSorted(rng *rand.Rand, m map[int]int) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[rng.Intn(len(keys))]
}
