package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/workload"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, BlockBytes: 32, HitLat: 1})
	if c.Access(64) {
		t.Error("cold cache hit")
	}
	c.Fill(64)
	if !c.Access(64) {
		t.Error("miss after fill")
	}
	if !c.Access(65) {
		t.Error("same-block access missed")
	}
	if c.Access(64 + 32) {
		t.Error("adjacent block hit without fill")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 4 sets of 32B: addresses 0, 128, 256 map to set 0.
	c := New(Config{SizeBytes: 256, Ways: 2, BlockBytes: 32, HitLat: 1})
	c.Fill(0)
	c.Fill(128)
	c.Access(0) // make 0 MRU
	c.Fill(256) // evicts 128
	if !c.Contains(0) {
		t.Error("MRU block evicted")
	}
	if c.Contains(128) {
		t.Error("LRU block not evicted")
	}
	if !c.Contains(256) {
		t.Error("filled block absent")
	}
}

func TestCacheCapacityInvariant(t *testing.T) {
	// Property: after any access sequence, each set holds at most Ways
	// distinct resident blocks, and a just-filled block is resident.
	c := New(Config{SizeBytes: 512, Ways: 2, BlockBytes: 32, HitLat: 1})
	f := func(addrs []uint16) bool {
		for _, a16 := range addrs {
			a := uint64(a16)
			if !c.Access(a) {
				c.Fill(a)
			}
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2, BlockBytes: 32, HitLat: 1})
	c.Access(0)
	c.Fill(0)
	c.Access(0)
	if mr := c.MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %.2f, want 0.5", mr)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	addr := uint64(0x1000)

	// Cold: L1 miss + L2 miss -> memory: latency includes mem + bus.
	done := h.AccessD(addr, 0, false)
	if done < uint64(h.MemLat) {
		t.Errorf("cold access done at %d, want >= %d", done, h.MemLat)
	}

	// Warm L1: exactly the L1 hit latency.
	done = h.AccessD(addr, 1000, false)
	if done != 1000+2 {
		t.Errorf("L1 hit done at %d, want 1002", done)
	}

	// Evict from L1 but not L2: fill conflicting blocks in the same L1 set.
	l1 := h.L1D.Config()
	sets := l1.SizeBytes / l1.BlockBytes / l1.Ways
	for i := 1; i <= l1.Ways; i++ {
		conflict := addr + uint64(i*sets*l1.BlockBytes)
		h.AccessD(conflict, 2000, false)
	}
	done = h.AccessD(addr, 3000, false)
	want := uint64(3000 + 2 + 10) // L1 lat + L2 hit lat
	if done != want {
		t.Errorf("L2 hit done at %d, want %d", done, want)
	}
}

func TestHierarchyBusSerializesMisses(t *testing.T) {
	h := DefaultHierarchy()
	// Two cold misses to different blocks at the same cycle must finish at
	// different times because the block transfers share the bus.
	d1 := h.AccessD(0x10000, 0, false)
	d2 := h.AccessD(0x20000, 0, false)
	if d2 <= d1 {
		t.Errorf("concurrent misses did not serialize on the bus: %d, %d", d1, d2)
	}
	if d2-d1 != uint64(h.BusCyclesPerBlock) {
		t.Errorf("bus spacing = %d, want %d", d2-d1, h.BusCyclesPerBlock)
	}
}

func TestHierarchyMSHRBound(t *testing.T) {
	h := DefaultHierarchy()
	// Issue more concurrent misses than MSHRs; the 17th must wait for a
	// slot (i.e., finish later than pure bus serialization of 16 would
	// imply relative to its own start).
	var last uint64
	for i := 0; i < h.MSHRs+1; i++ {
		addr := uint64(0x100000 + i*0x1000)
		last = h.AccessD(addr, 0, false)
	}
	if h.MSHRWaits == 0 {
		t.Error("MSHR saturation produced no waits")
	}
	if last == 0 {
		t.Error("no completion time")
	}
}

// TestHierarchyReset: a hierarchy that has served the fetches and data
// accesses of a region of gzip, once reset, equals a newly built one in
// every field, unexported state included.
func TestHierarchyReset(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	trace, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.2)).Code, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultHierarchy()
	var now uint64
	for _, d := range trace {
		now = h.AccessI(d.PC*4, now)
		if cls := d.Facts.Class(); cls == isa.ClassLoad || cls == isa.ClassStore {
			now = h.AccessD(d.EA*8, now, cls == isa.ClassStore)
		}
	}
	fresh := DefaultHierarchy()
	if h.MemAccesses == 0 || reflect.DeepEqual(h, fresh) {
		t.Fatal("the region left the hierarchy as built")
	}
	h.Reset()
	if !reflect.DeepEqual(h, fresh) {
		t.Error("a reset hierarchy differs from a newly built one")
	}
}

func TestSeparateIAndD(t *testing.T) {
	h := DefaultHierarchy()
	h.AccessI(0x40, 0)
	if h.L1D.Contains(0x40) {
		t.Error("instruction fetch polluted D$")
	}
	if !h.L1I.Contains(0x40) {
		t.Error("instruction fetch did not fill I$")
	}
}
