package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"reno/internal/pipeline"
	"reno/internal/sweep"
)

// fakeResult builds a synthetic complete result (encodable, auditable).
func fakeResult(bench string) *sweep.Result {
	return &sweep.Result{
		Bench: bench, Config: "RENO",
		Cycles: 100, Insts: 50, IPC: 0.5,
		ArchHash: "00000000000000aa", Hash: "00000000000000bb",
		Metrics: (&pipeline.Result{Cycles: 100, Insts: 50, IPC: 0.5}).Metrics(),
	}
}

// key16 renders i as a run-key-shaped address.
func key16(i int) string { return fmt.Sprintf("%016x", i) }

// TestDiskStorePutGet: entries round-trip through the filesystem, the
// directory holds exactly the final files (no temp leftovers), and stats
// track the population.
func TestDiskStorePutGet(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key16(1), fakeResult("gzip"))
	s.Put(key16(2), fakeResult("parser"))
	s.Put("not-a-key", fakeResult("gzip"))      // invalid address: ignored
	s.Put(key16(3), &sweep.Result{Err: "boom"}) // failure: ignored

	if n := s.Stats().Entries; n != 2 {
		t.Fatalf("store has %d entries, want 2", n)
	}
	got := s.Get(key16(1))
	if got == nil || got.Bench != "gzip" || !got.Complete() {
		t.Fatalf("Get returned %+v", got)
	}
	if s.Get(key16(9)) != nil {
		t.Error("absent key returned a result")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range entries {
		if !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	if len(names) != 2 || strings.HasPrefix(names[0], ".tmp") {
		t.Fatalf("store dir contents %v, want exactly the two records", names)
	}

	st := s.Stats()
	if st.Entries != 2 || st.Writes != 2 || st.Bytes == 0 || st.Quarantined != 0 {
		t.Fatalf("stats %+v", st)
	}

	// A fresh open on the same directory indexes the existing entries.
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Entries != 2 || s2.Get(key16(2)) == nil {
		t.Fatalf("reopened store: len %d", s2.Stats().Entries)
	}
}

// TestDiskStoreQuarantine: a corrupt or truncated entry is a miss, never an
// error — the bytes are moved to quarantine/ and the key becomes writable
// again.
func TestDiskStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key16(1), fakeResult("gzip"))
	s.Put(key16(2), fakeResult("parser"))

	// Truncate one record and bit-flip the other.
	if err := os.WriteFile(filepath.Join(dir, key16(1)+".json"), []byte(`{"schema": "reno.resu`), 0o644); err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, key16(2)+".json")
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path2, bytes.Replace(data, []byte("parser"), []byte("parsed"), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, k := range []string{key16(1), key16(2)} {
		if r := s.Get(k); r != nil {
			t.Fatalf("corrupt entry %s served as %+v", k, r)
		}
		if _, err := os.Stat(filepath.Join(dir, k+".json")); !os.IsNotExist(err) {
			t.Errorf("corrupt entry %s still addressable (err %v)", k, err)
		}
	}
	if st := s.Stats(); st.Quarantined != 2 || st.Entries != 0 {
		t.Fatalf("stats after quarantine: %+v", st)
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 2 {
		t.Fatalf("quarantine dir holds %d files (err %v), want 2", len(q), err)
	}

	// The key is a clean miss now; re-putting repopulates it.
	s.Put(key16(1), fakeResult("gzip"))
	if got := s.Get(key16(1)); got == nil || got.Bench != "gzip" {
		t.Fatalf("re-put after quarantine: %+v", got)
	}
}

// TestCacheWarmLoad: entries on disk are promoted into the memory tier at
// construction (bounded by the memory cap), corrupt ones quarantined; a
// memory miss falls back to disk and promotes.
func TestCacheWarmLoad(t *testing.T) {
	dir := t.TempDir()
	seed, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		seed.Put(key16(i), fakeResult(fmt.Sprintf("b%d", i)))
	}
	// Corrupt one entry before the warm load sees it.
	if err := os.WriteFile(filepath.Join(dir, key16(3)+".json"), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	disk, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewCache(-1, disk)
	st := mem.StoreStats()
	if st.Loaded != 3 || st.Quarantined != 1 || st.Hits != 0 {
		t.Fatalf("warm load (it counts in loaded, not in hits): %+v", st)
	}
	if mem.Len() != 3 {
		t.Fatalf("memory tier holds %d entries after warm load, want 3", mem.Len())
	}
	if r := mem.Get(key16(3)); r != nil {
		t.Fatalf("quarantined entry served: %+v", r)
	}

	// A bounded memory tier only warm-loads up to its cap; the rest still
	// arrives via disk fallback (and is promoted, evicting LRU).
	small := NewCache(2, disk)
	if st := small.StoreStats(); st.Loaded != 2 || st.Hits != 0 || small.Len() != 2 {
		t.Fatalf("bounded warm load: %+v, mem %d", st, small.Len())
	}
	hitsBefore := small.StoreStats().Hits
	misses := 0
	for i := 1; i <= 4; i++ {
		if i == 3 {
			continue // quarantined above
		}
		if small.Get(key16(i)) == nil {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d entries unreachable through the tiered cache", misses)
	}
	if small.StoreStats().Hits == hitsBefore {
		t.Error("no disk-tier fallback happened for entries beyond the memory cap")
	}
}

// writeStore fills dir with n records of key16(1)..key16(n), written
// directly (no fsync), and rots each key in corrupt.
func writeStore(t *testing.T, dir string, n int, corrupt ...int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		rec, err := sweep.EncodeResult(key16(i), fakeResult(fmt.Sprintf("b%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(corrupt, i) {
			rec = rec[:len(rec)/2]
		}
		if err := os.WriteFile(filepath.Join(dir, key16(i)+".json"), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// lruKeys lists the cache's keys from most to least recently used.
func lruKeys(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}

// TestWarmLoadMatchesSerialLoop: the parallel warm load promotes the
// entries a one-at-a-time loop over the sorted keys promotes, in the same
// LRU order, quarantining the same records, for an unbounded tier and for
// bounds below, at and above the store's size.
func TestWarmLoadMatchesSerialLoop(t *testing.T) {
	for _, bound := range []int{-1, 3, 9, 40} {
		serialDir, parallelDir := t.TempDir(), t.TempDir()
		for _, dir := range []string{serialDir, parallelDir} {
			writeStore(t, dir, 30, 2, 5, 17)
		}

		disk, err := OpenDiskStore(serialDir)
		if err != nil {
			t.Fatal(err)
		}
		serial := NewCache(bound, nil)
		loaded := 0
		for _, key := range disk.Keys() {
			if serial.Bound() > 0 && loaded >= serial.Bound() {
				break
			}
			if r := disk.Get(key); r != nil {
				serial.Put(key, r)
				loaded++
			}
		}

		pdisk, err := OpenDiskStore(parallelDir)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewCache(bound, pdisk)
		st := mem.StoreStats()
		if got, want := lruKeys(mem), lruKeys(serial); !slices.Equal(got, want) {
			t.Errorf("bound %d: LRU order %v, serial loop %v", bound, got, want)
		}
		if st.Loaded != loaded || st.Quarantined != disk.Stats().Quarantined || st.Entries != disk.Stats().Entries {
			t.Errorf("bound %d: stats %+v, serial loop loaded %d, %+v", bound, st, loaded, disk.Stats())
		}
	}
}

// TestBoundedWarmLoadLeavesRestUnread: a bounded tier reads no record past
// its bound, so a corrupt one there stays in place until a lookup reads it.
func TestBoundedWarmLoadLeavesRestUnread(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 6, 5)
	disk, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := NewCache(3, disk).StoreStats()
	if st.Loaded != 3 || st.Quarantined != 0 || st.Entries != 6 {
		t.Fatalf("bounded warm load: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, key16(5)+".json")); err != nil {
		t.Fatalf("the corrupt record past the bound was moved: %v", err)
	}
	if q, err := os.ReadDir(filepath.Join(dir, quarantineDir)); err != nil || len(q) != 0 {
		t.Fatalf("quarantine holds %d files (err %v), want none", len(q), err)
	}
}

// TestWarmLoad200Records loads a 200-record store on every goroutine the
// load starts; under -race it is the load's data-race check.
func TestWarmLoad200Records(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 200, 7, 101)
	disk, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewCache(-1, disk)
	st := mem.StoreStats()
	if st.Loaded != 198 || st.Quarantined != 2 || st.Entries != 198 || st.Hits != 0 || mem.Len() != 198 {
		t.Fatalf("warm load: %+v, mem %d", st, mem.Len())
	}
	if r := mem.Get(key16(200)); r == nil || r.Bench != "b200" {
		t.Fatalf("key %s loaded as %+v", key16(200), r)
	}
}

// stableBytes renders a job's stable envelope.
func stableBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	rep, err := j.Results(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runToDone submits a spec and waits for a clean finish.
func runToDone(t *testing.T, s *Service, spec []byte) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	return j
}

// TestServiceRestartSurvival is the acceptance property at the service
// level: a second service instance on the same store directory serves a
// resubmitted grid with zero new simulations and byte-identical results;
// a corrupted entry degrades to one re-simulation (quarantined), still
// byte-identical — and since entries are written atomically as each run
// completes, an unclean death (no Close) loses nothing.
func TestServiceRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"benches":["gzip"],"renos":["BASE","RENO"],"max_insts":5000,"scale":0.2}`)
	cfg := Config{Workers: 2, StoreDir: dir}

	// First life: simulate everything, remember the envelope. No graceful
	// close — results must already be durable (SIGKILL equivalence).
	s1 := mustNew(t, cfg)
	want := stableBytes(t, runToDone(t, s1, spec))
	if n := s1.Simulated(); n != 2 {
		t.Fatalf("first life simulated %d runs, want 2", n)
	}
	s1.StopIntake() // stop the runners; deliberately no Close/flush

	// Second life: warm-loaded from disk, zero new simulations, same bytes.
	s2 := mustNew(t, cfg)
	defer closeNow(t, s2)
	if st := s2.Stats(); st.Store == nil || st.Store.Entries != 2 || st.Store.Loaded != 2 {
		t.Fatalf("restarted store stats: %+v", st.Store)
	}
	j2 := runToDone(t, s2, spec)
	if st := j2.Status(); st.CacheHits != 2 || st.Simulated != 0 {
		t.Fatalf("restart resubmission counters: %+v", st)
	}
	if s2.Simulated() != 0 {
		t.Fatalf("restarted service executed %d pipeline runs, want 0", s2.Simulated())
	}
	if got := stableBytes(t, j2); !bytes.Equal(got, want) {
		t.Fatalf("restart served different bytes:\n%s\n----\n%s", got, want)
	}

	// Third life: one entry rots. The service re-simulates exactly that
	// cell, quarantines the bad record, and the bytes still match.
	keys, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, de := range keys {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			if err := os.WriteFile(filepath.Join(dir, de.Name()), []byte("rot"), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no store entry found to corrupt")
	}
	s3 := mustNew(t, cfg)
	defer closeNow(t, s3)
	j3 := runToDone(t, s3, spec)
	if st := j3.Status(); st.CacheHits != 1 || st.Simulated != 1 {
		t.Fatalf("post-corruption counters: %+v", st)
	}
	if st := s3.Stats(); st.Store == nil || st.Store.Quarantined != 1 {
		t.Fatalf("corruption was not quarantined: %+v", st.Store)
	}
	if got := stableBytes(t, j3); !bytes.Equal(got, want) {
		t.Fatalf("post-corruption bytes differ:\n%s\n----\n%s", got, want)
	}
	// The re-simulated entry healed the store.
	if st := s3.Stats(); st.Store.Entries != 2 {
		t.Fatalf("store not healed after re-simulation: %+v", st.Store)
	}
}

// TestServiceDiskFallback: a service whose memory tier holds one entry
// serves a 2-cell grid persisted by an earlier service wholly from cache.
// The warm load fills the one slot; the other cell is a memory miss served
// from disk and promoted, and Stats reports it under store.hits.
func TestServiceDiskFallback(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"benches":["gzip"],"renos":["BASE","RENO"],"max_insts":5000,"scale":0.2}`)
	s1 := mustNew(t, Config{Workers: 2, StoreDir: dir})
	want := stableBytes(t, runToDone(t, s1, spec))
	closeNow(t, s1)

	s2 := mustNew(t, Config{Workers: 2, CacheEntries: 1, StoreDir: dir})
	defer closeNow(t, s2)
	j := runToDone(t, s2, spec)
	if st := j.Status(); st.Runs != 2 || st.CacheHits != st.Runs || st.Simulated != 0 {
		t.Fatalf("bounded resubmission counters: %+v", st)
	}
	if st := s2.Stats().Store; st == nil || st.Loaded != 1 || st.Hits < 1 {
		t.Fatalf("bounded store stats: %+v", st)
	}
	if got := stableBytes(t, j); !bytes.Equal(got, want) {
		t.Fatalf("disk fallback served different bytes:\n%s\n----\n%s", got, want)
	}
}

// TestServiceStoreDirError: an unusable store directory fails construction
// loudly instead of running without persistence.
func TestServiceStoreDirError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Config{StoreDir: file}); err == nil {
		closeNow(t, s)
		t.Fatal("New accepted a store path that is a regular file")
	}
}

// TestConcurrentStoreSharing: two services sharing one directory never torn-
// write; a result computed by one is served by the other without
// re-simulation.
func TestConcurrentStoreSharing(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":5000,"scale":0.2}`)
	a := mustNew(t, Config{Workers: 1, StoreDir: dir})
	defer closeNow(t, a)
	runToDone(t, a, spec)
	if a.Simulated() != 1 {
		t.Fatalf("first daemon simulated %d, want 1", a.Simulated())
	}

	// The second daemon opened the dir after the write: warm-loads it.
	b := mustNew(t, Config{Workers: 1, StoreDir: dir})
	defer closeNow(t, b)
	j := runToDone(t, b, spec)
	if st := j.Status(); st.CacheHits != 1 || st.Simulated != 0 {
		t.Fatalf("second daemon did not share the store: %+v", st)
	}
}
