package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"reno/internal/sweep"
)

// DefaultCacheEntries is the cache bound used when the configured bound is
// zero: generous for real grids, finite for a long-lived daemon. An entry
// for a functional screening cell (46 metrics) measured 3.0 KB of heap
// until its first stable emission and 10.1 KB after it, which adds the
// cell's rendered record and its ~4.4 KB of encoded bytes (Result.Clone):
// ~200 MB for a full cache, ~660 MB once every entry has been served.
const DefaultCacheEntries = 65536

// Cache is the service's result cache, addressed by stable run keys
// (sweep.Job.Key): a hash over every input that determines a run's
// deterministic outcome. Because simulation is deterministic, a key equal
// to a previously executed run's key identifies a byte-identical stable
// result record, so serving the cached *sweep.Result in its place is
// observationally equivalent to re-simulating — which is exactly what the
// cache-identity acceptance test pins. Only completed, successful runs are
// cached: failures, timeouts, and cancellations carry wall-clock-dependent
// partial state that must not be replayed as truth.
//
// Results are copied on both insert and lookup (sweep.Result.Clone), so
// the cache never aliases mutable state with callers: a job (or client)
// that mutates a served result cannot corrupt what later jobs are served.
// The shared parts are read-only: the result's metric set — emission
// copies it before layering the wall-clock metrics on — and the memo of
// its stable envelope record, so a hit neither copies a metric set nor,
// after the entry's first stable emission, renders or encodes its record.
//
// The memory tier is bounded LRU; the bound follows one convention
// everywhere (NewCache, Config.CacheEntries, the -cache flag): < 0 =
// unbounded, 0 = DefaultCacheEntries, > 0 = that many entries. Each entry
// pins its run's full metric set, and a long-lived daemon sweeping
// ever-distinct grids must not grow without limit. Eviction is always
// safe — it only costs re-simulation, or a disk read, on the next
// submission.
//
// With a DiskStore behind it (renoserve -store), the cache is tiered:
// lookups hit memory first and fall back to disk, promoting the entry into
// memory; writes land in memory and then on disk. That is memory speed for
// the working set, with restart survival and cross-replica sharing from
// the directory behind it.
type Cache struct {
	disk   *DiskStore // set once in NewCache; nil = memory only
	loaded int        // set once in NewCache: entries warm-loaded from disk

	diskHits atomic.Uint64 // memory misses served from disk

	mu     sync.Mutex
	max    int                      // guarded by mu; 0 = unbounded (resolved in NewCache)
	m      map[string]*list.Element // guarded by mu
	lru    *list.List               // guarded by mu; front = most recently used
	hits   uint64                   // guarded by mu
	misses uint64                   // guarded by mu
	evicts uint64                   // guarded by mu
}

// cacheEntry is one LRU element.
type cacheEntry struct {
	key string
	r   *sweep.Result
}

// NewCache returns a cache bounded to max entries, over disk when disk is
// non-nil. The bound convention matches Config.CacheEntries and the
// renoserve -cache flag: max < 0 means unbounded, max == 0 means
// DefaultCacheEntries, and a positive max is taken literally.
//
// With a disk, the memory tier warm-loads: up to the bound, entries already
// on disk are decoded (corrupt ones quarantined) and promoted, so a
// restarted daemon starts hot instead of paying a disk read per first
// touch. The load takes the keys in sorted order and reads them in
// parallel (DiskStore.load), one batch at a time, promoting each batch in
// key order. A batch is as many keys as the bound has room left for, so a
// bounded cache reads — and quarantines — exactly the keys a
// one-at-a-time loop would, and ends with the same entries in the same LRU
// order.
func NewCache(max int, disk *DiskStore) *Cache {
	switch {
	case max < 0:
		max = 0 // unbounded
	case max == 0:
		max = DefaultCacheEntries
	}
	c := &Cache{disk: disk, max: max, m: map[string]*list.Element{}, lru: list.New()}
	if disk == nil {
		return c
	}
	for keys := disk.Keys(); len(keys) > 0 && (max == 0 || c.loaded < max); {
		batch := keys
		if max > 0 {
			batch = keys[:min(len(keys), max-c.loaded)]
		}
		keys = keys[len(batch):]
		for i, r := range disk.load(batch) {
			if r != nil {
				c.insert(batch[i], r)
				c.loaded++
			}
		}
	}
	return c
}

// Bound returns the resolved entry bound (0 = unbounded).
func (c *Cache) Bound() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// Get returns a copy of the cached result for key (nil on miss) and counts
// the memory tier's outcome. A memory miss falls back to the disk, if any,
// and a disk hit is promoted into memory so the next lookup is free. The
// returned result is the caller's own: mutating it never affects the
// cache.
func (c *Cache) Get(key string) *sweep.Result {
	if r := c.memGet(key); r != nil || c.disk == nil {
		return r
	}
	r := c.disk.Get(key)
	if r != nil {
		c.diskHits.Add(1)
		c.insert(key, r)
	}
	return r
}

// memGet is Get's memory-tier lookup.
func (c *Cache) memGet(key string) *sweep.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).r.Clone()
	}
	c.misses++
	return nil
}

// Put records a completed successful run under its key, in memory and then
// on disk, if any. Failed or partial runs are ignored, as are nil results.
func (c *Cache) Put(key string, r *sweep.Result) {
	c.insert(key, r)
	if c.disk != nil {
		c.disk.Put(key, r)
	}
}

// insert stores a copy (Clone) of a completed successful run in memory,
// evicting the least recently used entry when the bound is exceeded.
func (c *Cache) insert(key string, r *sweep.Result) {
	if !r.Complete() {
		return
	}
	r = r.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).r = r
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&cacheEntry{key: key, r: r})
	if c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
		c.evicts++
	}
}

// Len returns the number of runs in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the memory tier's lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many entries the LRU bound has displaced.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicts
}

// StoreStats snapshots the disk tier, with the warm-load and disk-hit
// counts; nil when the cache has no disk.
func (c *Cache) StoreStats() *StoreStats {
	if c.disk == nil {
		return nil
	}
	st := c.disk.Stats()
	st.Loaded, st.Hits = c.loaded, c.diskHits.Load()
	return &st
}
