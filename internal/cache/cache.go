// Package cache implements the simulated memory hierarchy of Section 4.1:
// a 16KB 2-way 1-cycle instruction cache, a 32KB 2-way 2-cycle data cache
// (32B blocks), a unified 512KB 4-way 10-cycle L2 (64B lines), and a
// 100-cycle main memory reached over a 16B bus clocked at one quarter of
// the core frequency, with at most 16 outstanding misses.
//
// The model is a latency/occupancy model, not a coherence model: each access
// returns the cycle at which its data is available, and miss handling
// consumes MSHR slots and bus slots so that miss bursts serialize
// realistically.
package cache

// Config describes one cache level.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	HitLat     int // cycles
}

// Hierarchy wires L1I, L1D, L2, and memory together. The caches are held
// by value, so a hierarchy and the counters every access updates are one
// allocation.
type Hierarchy struct {
	L1I, L1D, L2 Cache

	MemLat int // main memory access latency

	// Bus models the 16B quarter-speed front-side bus: one L2-miss block
	// transfer occupies the bus for BusCyclesPerBlock core cycles.
	BusCyclesPerBlock int
	busFreeAt         uint64

	// MSHRs bound the number of outstanding misses.
	MSHRs    int
	mshrFree []uint64 // cycle at which each MSHR frees

	// Stats
	MemAccesses uint64
	BusWaits    uint64
	MSHRWaits   uint64
}

// DefaultHierarchy returns the paper's memory system.
func DefaultHierarchy() *Hierarchy {
	h := &Hierarchy{
		L1I:    *New(Config{SizeBytes: 16 << 10, Ways: 2, BlockBytes: 32, HitLat: 1}),
		L1D:    *New(Config{SizeBytes: 32 << 10, Ways: 2, BlockBytes: 32, HitLat: 2}),
		L2:     *New(Config{SizeBytes: 512 << 10, Ways: 4, BlockBytes: 64, HitLat: 10}),
		MemLat: 100,
		// 64B line over a 16B bus at quarter core clock: 4 beats x 4 cycles.
		BusCyclesPerBlock: 16,
		MSHRs:             16,
	}
	h.mshrFree = make([]uint64, h.MSHRs)
	return h
}

// AccessI performs an instruction fetch of the block containing byte
// address addr at time now, returning the data-ready cycle.
func (h *Hierarchy) AccessI(addr uint64, now uint64) uint64 {
	return h.access(&h.L1I, addr, now, false)
}

// AccessD performs a data access at time now, returning the data-ready
// cycle. Stores also probe the hierarchy (write-allocate).
func (h *Hierarchy) AccessD(addr uint64, now uint64, isStore bool) uint64 {
	return h.access(&h.L1D, addr, now, isStore)
}

func (h *Hierarchy) access(l1 *Cache, addr uint64, now uint64, isStore bool) uint64 {
	if l1.Access(addr) {
		return now + uint64(l1.cfg.HitLat)
	}
	// L1 miss: allocate in L1, go to L2.
	l1.Fill(addr)
	if h.L2.Access(addr) {
		return now + uint64(l1.cfg.HitLat) + uint64(h.L2.cfg.HitLat)
	}
	// L2 miss: needs an MSHR and the bus.
	h.L2.Fill(addr)
	h.MemAccesses++
	start := now + uint64(l1.cfg.HitLat) + uint64(h.L2.cfg.HitLat)

	// MSHR allocation: find the earliest-freeing slot.
	slot, freeAt := 0, h.mshrFree[0]
	for i, f := range h.mshrFree {
		if f < freeAt {
			slot, freeAt = i, f
		}
	}
	if freeAt > start {
		h.MSHRWaits += freeAt - start
		start = freeAt
	}

	// Bus occupancy for the block transfer.
	busAt := start + uint64(h.MemLat)
	if h.busFreeAt > busAt {
		h.BusWaits += h.busFreeAt - busAt
		busAt = h.busFreeAt
	}
	done := busAt + uint64(h.BusCyclesPerBlock)
	h.busFreeAt = done
	h.mshrFree[slot] = done
	_ = isStore
	return done
}

// Reset clears all cache state and statistics, leaving h as
// DefaultHierarchy builds it.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.busFreeAt = 0
	clear(h.mshrFree)
	h.MemAccesses, h.BusWaits, h.MSHRWaits = 0, 0, 0
}

// Cache is one set-associative level with LRU replacement. The tag and age
// arrays are flat (set-major, sets×Ways): two allocations per cache and
// contiguous way scans on the per-access hot path.
type Cache struct {
	cfg  Config
	sets int
	tags []uint64
	age  []uint32
	tick uint32

	Accesses uint64
	Misses   uint64
}

// New builds a cache from its geometry.
func New(cfg Config) *Cache {
	sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	c := &Cache{cfg: cfg, sets: sets}
	c.tags = make([]uint64, sets*cfg.Ways)
	c.age = make([]uint32, sets*cfg.Ways)
	c.Reset()
	return c
}

// setBounds returns the way-slice bounds of addr's set.
func (c *Cache) setBounds(addr uint64) (lo, hi int, tag uint64) {
	set, t := c.index(addr)
	lo = int(set) * c.cfg.Ways
	return lo, lo + c.cfg.Ways, t
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	block := addr / uint64(c.cfg.BlockBytes)
	return block % uint64(c.sets), block / uint64(c.sets)
}

// Access probes the cache and updates LRU on hit. It does not allocate.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.tick++
	lo, hi, tag := c.setBounds(addr)
	for i := lo; i < hi; i++ {
		if c.tags[i] == tag {
			c.age[i] = c.tick
			return true
		}
	}
	c.Misses++
	return false
}

// Fill allocates the block containing addr, evicting LRU.
func (c *Cache) Fill(addr uint64) {
	lo, hi, tag := c.setBounds(addr)
	victim, oldest := lo, c.age[lo]
	for i := lo; i < hi; i++ {
		if c.tags[i] == ^uint64(0) {
			victim = i
			break
		}
		if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.tags[victim] = tag
	c.tick++
	c.age[victim] = c.tick
}

// Contains reports whether addr's block is resident (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	lo, hi, tag := c.setBounds(addr)
	for i := lo; i < hi; i++ {
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Reset clears the cache: every way invalid, as New builds it.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
	clear(c.age)
	c.tick = 0
	c.Accesses, c.Misses = 0, 0
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
