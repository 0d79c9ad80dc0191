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
	// Hits counts the cache's memory misses served from disk (the warm
	// load counts only in Loaded; a bare DiskStore's Stats leaves both
	// zero); Writes counts entries persisted by this daemon.
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

	writes, quarantined, writeErrors atomic.Uint64

	mu      sync.Mutex
	entries map[string]int64 // guarded by mu; key → on-disk record size in bytes
	bytes   int64            // guarded by mu
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir and
// indexes the entries already present. Files that are not result records
// (tmp leftovers, foreign files) are ignored; decoding — and therefore
// quarantining — happens lazily on Get and eagerly in the cache's warm
// load (NewCache).
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

// load Gets keys on GOMAXPROCS goroutines (sweep.ForEach) and returns
// each one's result, nil for a miss (a corrupt record is quarantined).
func (s *DiskStore) load(keys []string) []*sweep.Result {
	out := make([]*sweep.Result, len(keys))
	sweep.ForEach(0, len(keys), func(i int) { out[i] = s.Get(keys[i]) })
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

// Stats snapshots the store.
func (s *DiskStore) Stats() StoreStats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return StoreStats{
		Dir:         s.dir,
		Entries:     entries,
		Bytes:       bytes,
		Writes:      s.writes.Load(),
		Quarantined: s.quarantined.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
}
