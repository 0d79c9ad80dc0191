package service

import (
	"container/list"
	"sync"

	"reno/internal/sweep"
)

// DefaultCacheEntries is the cache bound used when the configured bound is
// zero: generous for real grids, finite for a long-lived daemon. An entry
// for a functional screening cell (46 metrics) measured 3.0 KB of heap
// until its first stable emission and 10.1 KB after it, which adds the
// cell's rendered record and its ~4.4 KB of encoded bytes (Result.Clone):
// ~200 MB for a full cache, ~660 MB once every entry has been served.
const DefaultCacheEntries = 65536

// Cache is the in-memory result cache, addressed by stable run keys
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
// The cache is bounded LRU; the bound follows one convention everywhere
// (NewCacheSize, Config.CacheEntries, the -cache flag): < 0 = unbounded,
// 0 = DefaultCacheEntries, > 0 = that many entries. Each entry pins its
// run's full metric set, and a long-lived daemon sweeping
// ever-distinct grids must not grow without limit. Eviction is always
// safe — it only costs re-simulation on the next submission.
type Cache struct {
	mu     sync.Mutex
	max    int                      // guarded by mu; 0 = unbounded (resolved in NewCacheSize)
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

// NewCache returns an empty unbounded cache.
func NewCache() *Cache { return NewCacheSize(-1) }

// NewCacheSize returns an empty cache bounded to max entries. The bound
// convention matches Config.CacheEntries and the renoserve -cache flag:
// max < 0 means unbounded, max == 0 means DefaultCacheEntries, and a
// positive max is taken literally.
func NewCacheSize(max int) *Cache {
	switch {
	case max < 0:
		max = 0 // unbounded
	case max == 0:
		max = DefaultCacheEntries
	}
	return &Cache{max: max, m: map[string]*list.Element{}, lru: list.New()}
}

// Bound returns the resolved entry bound (0 = unbounded).
func (c *Cache) Bound() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// Get returns a copy of the cached result for key (nil on miss) and counts
// the outcome. The returned result is the caller's own: mutating it never
// affects the cache.
func (c *Cache) Get(key string) *sweep.Result {
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

// Put stores a copy (Clone) of a completed successful run under its key,
// evicting the least recently used entry when the bound is exceeded. Failed
// or partial runs are ignored, as are nil results.
func (c *Cache) Put(key string, r *sweep.Result) {
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

// Len returns the number of cached runs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the lifetime hit and miss counts.
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
