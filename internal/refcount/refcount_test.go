package refcount

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocUntilExhausted(t *testing.T) {
	tb := New(8)
	got := map[int]bool{}
	for i := 0; i < 7; i++ { // 8 minus pinned zero reg
		p, ok := tb.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed with %d free", i, tb.Free())
		}
		if p == ZeroReg {
			t.Fatal("allocated the zero register")
		}
		if got[p] {
			t.Fatalf("double allocation of p%d", p)
		}
		got[p] = true
	}
	if _, ok := tb.Alloc(); ok {
		t.Error("allocation succeeded on a full file")
	}
	if tb.Free() != 0 {
		t.Errorf("free = %d, want 0", tb.Free())
	}
}

func TestShareAndFree(t *testing.T) {
	tb := New(8)
	p, _ := tb.Alloc()
	tb.Inc(p) // a sharing operation
	tb.Inc(p)
	if tb.Count(p) != 3 {
		t.Errorf("count = %d, want 3", tb.Count(p))
	}
	if tb.Dec(p) {
		t.Error("freed with references outstanding")
	}
	if tb.Dec(p) {
		t.Error("freed with references outstanding")
	}
	if !tb.Dec(p) {
		t.Error("final Dec did not free")
	}
	if tb.Count(p) != 0 {
		t.Errorf("count after free = %d", tb.Count(p))
	}
	// The register is reusable.
	seen := false
	for i := 0; i < tb.Size(); i++ {
		q, ok := tb.Alloc()
		if !ok {
			break
		}
		if q == p {
			seen = true
		}
	}
	if !seen {
		t.Error("freed register never reallocated")
	}
}

func TestZeroRegPinned(t *testing.T) {
	tb := New(4)
	if tb.Dec(ZeroReg) {
		t.Error("zero register freed")
	}
	tb.Inc(ZeroReg) // must not panic or overflow
	if tb.Count(ZeroReg) == 0 {
		t.Error("zero register unpinned")
	}
}

func TestDecOfFreePanics(t *testing.T) {
	tb := New(4)
	p, _ := tb.Alloc()
	tb.Dec(p)
	defer func() {
		if recover() == nil {
			t.Error("Dec of free register did not panic")
		}
	}()
	tb.Dec(p)
}

func TestIncOfFreePanics(t *testing.T) {
	tb := New(4)
	p, _ := tb.Alloc()
	tb.Dec(p)
	defer func() {
		if recover() == nil {
			t.Error("Inc of free register did not panic")
		}
	}()
	tb.Inc(p)
}

// TestConservation is the core property: through any random sequence of
// alloc/inc/dec, free-count bookkeeping matches the table exactly, and the
// number of live references equals allocations+incs-decs.
func TestConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(32)
		live := map[int]int{}
		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0:
				if p, ok := tb.Alloc(); ok {
					live[p] = 1
				}
			case 1:
				if len(live) > 0 {
					p := pick(rng, live)
					tb.Inc(p)
					live[p]++
				}
			case 2:
				if len(live) > 0 {
					p := pick(rng, live)
					freed := tb.Dec(p)
					live[p]--
					if (live[p] == 0) != freed {
						return false
					}
					if live[p] == 0 {
						delete(live, p)
					}
				}
			}
			if tb.CheckInvariant() != nil {
				return false
			}
			for p, n := range live {
				if tb.Count(p) != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func pick(rng *rand.Rand, m map[int]int) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys[rng.Intn(len(keys))]
}

func TestMaxInUseTracking(t *testing.T) {
	tb := New(8)
	a, _ := tb.Alloc()
	b, _ := tb.Alloc()
	tb.Dec(a)
	tb.Dec(b)
	if tb.MaxInUse != 3 { // zero reg + 2 peak
		t.Errorf("MaxInUse = %d, want 3", tb.MaxInUse)
	}
}
