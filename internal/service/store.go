package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reno/internal/sweep"
)

// ResultStore is the pluggable persistence seam behind the service's result
// cache: a content-addressed map from stable run keys (sweep.Job.Key) to
// completed results. The in-memory Cache, the disk-backed DiskStore, and
// their TieredStore composition all implement it; a future KV backend slots
// in here without touching the scheduler. Implementations must be safe for
// concurrent use, must only ever serve complete successful results, and
// must treat Put as best-effort (a store that cannot persist degrades to
// re-simulation, never to an error on the run path).
type ResultStore interface {
	// Get returns the stored result for key, or nil on a miss. The caller
	// owns the returned result.
	Get(key string) *sweep.Result
	// Put records a completed successful run under its key. Failed or
	// partial results are ignored.
	Put(key string, r *sweep.Result)
	// Len returns the number of stored results.
	Len() int
}

// StoreStats is the persistent tier's health snapshot, served under
// "store" in /v1/healthz.
type StoreStats struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Entries and Bytes describe the on-disk population as last observed
	// by this daemon (other replicas sharing the directory may add more).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Loaded counts entries warm-loaded into the memory tier at startup.
	Loaded int `json:"loaded"`
	// Hits counts memory-tier misses served from disk (the warm load
	// counts only in Loaded); Writes counts entries persisted by this
	// daemon.
	Hits   uint64 `json:"hits"`
	Writes uint64 `json:"writes"`
	// Quarantined counts corrupt or truncated entries moved aside (to
	// dir/quarantine/) instead of being served — each one degraded into a
	// cache miss and was re-simulated.
	Quarantined uint64 `json:"quarantined"`
	// WriteErrors counts failed persistence attempts (the run was still
	// served from memory; only durability was lost).
	WriteErrors uint64 `json:"write_errors"`
}

// quarantineDir is where a DiskStore moves entries that fail to decode.
const quarantineDir = "quarantine"

// DiskStore is the disk-backed content-addressed result store: one file per
// run key (<key>.json, the reno.result/v1 record of internal/sweep's
// codec), written atomically via a temp file + rename in the same
// directory. Atomic renames make concurrent daemons sharing one directory
// safe — a reader never observes a torn write, and two writers racing on
// one key rename byte-identical content (the codec is canonical and
// simulation deterministic), so last-rename-wins is harmless.
//
// Robustness over availability of any single entry: a record that fails to
// decode for any reason — truncation, bit corruption, checksum mismatch,
// schema drift, a key that does not match its filename — is moved to the
// quarantine/ subdirectory and reported as a miss. The daemon re-simulates
// and overwrites; it never crashes on, and never serves, a bad entry.
type DiskStore struct {
	dir string

	hits, writes, quarantined, writeErrors atomic.Uint64

	mu      sync.Mutex
	entries map[string]int64 // guarded by mu; key → on-disk record size in bytes
	bytes   int64            // guarded by mu
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir and
// indexes the entries already present. Files that are not result records
// (tmp leftovers, foreign files) are ignored; decoding — and therefore
// quarantining — happens lazily on Get and eagerly on WarmLoad.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	s := &DiskStore{dir: dir, entries: map[string]int64{}}
	glob, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	// The store has not escaped yet, but indexing mutates guarded state,
	// so hold the lock anyway: the discipline stays structural (lockcheck)
	// rather than depending on escape reasoning.
	s.mu.Lock()
	for _, de := range glob {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if de.IsDir() || !ok || !validKey(key) {
			continue
		}
		size := int64(0)
		if fi, err := de.Info(); err == nil {
			size = fi.Size()
		}
		s.entries[key] = size
		s.bytes += size
	}
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// validKey accepts exactly the run-key form (16 lowercase hex digits), so
// a hostile or accidental key can never escape the store directory.
func validKey(key string) bool {
	if len(key) != 16 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path maps a key to its record file.
func (s *DiskStore) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get reads and decodes the record for key. It always consults the
// filesystem (another replica may have written the entry after this store
// was opened); a record that fails any integrity check is quarantined and
// reported as a miss.
func (s *DiskStore) Get(key string) *sweep.Result {
	r := s.read(key)
	if r != nil {
		s.hits.Add(1)
	}
	return r
}

// read is Get without counting a hit.
func (s *DiskStore) read(key string) *sweep.Result {
	if !validKey(key) {
		return nil
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.forget(key)
		return nil
	}
	storedKey, r, err := sweep.DecodeResult(data)
	if err == nil && storedKey != key {
		err = fmt.Errorf("result store: entry %s claims key %s", key, storedKey)
	}
	if err != nil {
		s.quarantine(key)
		return nil
	}
	s.remember(key, int64(len(data)))
	return r
}

// load reads keys on GOMAXPROCS goroutines (sweep.ForEach) and returns
// each one's result, nil for a miss (a corrupt record is quarantined, as by
// Get). It counts no hits: the warm load counts what it loads itself.
func (s *DiskStore) load(keys []string) []*sweep.Result {
	out := make([]*sweep.Result, len(keys))
	sweep.ForEach(0, len(keys), func(i int) { out[i] = s.read(keys[i]) })
	return out
}

// Put encodes and atomically persists a completed successful run. Failures
// are counted, not returned: persistence is an optimization, and a run that
// cannot be stored has still been served from memory.
func (s *DiskStore) Put(key string, r *sweep.Result) {
	if !r.Complete() || !validKey(key) {
		return
	}
	data, err := sweep.EncodeResult(key, r)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	if err := s.writeAtomic(key, data); err != nil {
		s.writeErrors.Add(1)
		return
	}
	s.writes.Add(1)
	s.remember(key, int64(len(data)))
}

// writeAtomic lands the record bytes under the key's final name via a
// unique temp file in the same directory and an atomic rename, fsyncing
// first so a crash never leaves a truncated record under the final name.
func (s *DiskStore) writeAtomic(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+key+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(key))
}

// quarantine moves a bad record out of the addressable namespace so it is
// never decoded again, preserving the bytes for post-mortem.
func (s *DiskStore) quarantine(key string) {
	dst := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s.json.%d", key, time.Now().UnixNano()))
	if err := os.Rename(s.path(key), dst); err != nil {
		// Last resort: remove it, so the store cannot serve it later.
		os.Remove(s.path(key))
	}
	s.quarantined.Add(1)
	s.forget(key)
}

// remember and forget keep the entry index in sync with the filesystem.
func (s *DiskStore) remember(key string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.bytes -= old
	}
	s.entries[key] = size
	s.bytes += size
}

func (s *DiskStore) forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.bytes -= old
		delete(s.entries, key)
	}
}

// Keys returns the indexed run keys, sorted for deterministic iteration.
func (s *DiskStore) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Len returns the number of indexed entries.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store.
func (s *DiskStore) Stats() StoreStats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return StoreStats{
		Dir:         s.dir,
		Entries:     entries,
		Bytes:       bytes,
		Hits:        s.hits.Load(),
		Writes:      s.writes.Load(),
		Quarantined: s.quarantined.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
}

// TieredStore composes the in-memory LRU in front of the disk store:
// lookups hit memory first and fall back to disk (promoting the entry into
// memory), writes land in both tiers. This is the cache renoserve runs with
// -store: memory speed for the working set, restart survival and
// cross-replica sharing from the directory behind it.
type TieredStore struct {
	mem    *Cache
	disk   *DiskStore
	loaded int
}

// NewTieredStore composes mem over disk and warm-loads the memory tier:
// up to the memory bound, entries already on disk are decoded (corrupt ones
// quarantined) and promoted, so a restarted daemon starts hot instead of
// paying a disk read per first touch.
//
// The load takes the keys in sorted order and reads them in parallel
// (DiskStore.load), one batch at a time, promoting each batch in key order.
// A batch is as many keys as the bound has room left for, so a bounded
// tier reads — and quarantines — exactly the keys a one-at-a-time loop
// would, and ends with the same entries in the same LRU order.
func NewTieredStore(mem *Cache, disk *DiskStore) *TieredStore {
	t := &TieredStore{mem: mem, disk: disk}
	limit := mem.Bound() // 0 = unbounded: load everything
	for keys := disk.Keys(); len(keys) > 0 && (limit == 0 || t.loaded < limit); {
		batch := keys
		if limit > 0 {
			batch = keys[:min(len(keys), limit-t.loaded)]
		}
		keys = keys[len(batch):]
		for i, r := range disk.load(batch) {
			if r != nil {
				mem.Put(batch[i], r)
				t.loaded++
			}
		}
	}
	return t
}

// Get consults memory, then disk. A disk hit is promoted into memory so
// the next lookup is free.
func (t *TieredStore) Get(key string) *sweep.Result {
	if r := t.mem.Get(key); r != nil {
		return r
	}
	r := t.disk.Get(key)
	if r != nil {
		t.mem.Put(key, r)
	}
	return r
}

// Put records the run in both tiers.
func (t *TieredStore) Put(key string, r *sweep.Result) {
	t.mem.Put(key, r)
	t.disk.Put(key, r)
}

// Len returns the persistent tier's entry count (the superset: memory is
// a bounded subset of disk plus whatever has not been persisted).
func (t *TieredStore) Len() int { return t.disk.Len() }

// Stats snapshots the persistent tier, including the warm-load count.
func (t *TieredStore) Stats() StoreStats {
	st := t.disk.Stats()
	st.Loaded = t.loaded
	return st
}
