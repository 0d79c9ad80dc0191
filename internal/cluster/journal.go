package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"reno/internal/service"
)

// The write-ahead journal makes coordinator job state durable: every job
// submission and job completion is an appended NDJSON record, so a
// coordinator restarted on the same journal can reconstruct which sweeps
// were in flight and resume them instead of losing them. Replay is in
// recover.go. The journal never stores result payloads or per-cell state:
// completed cells live in the content-addressed result store, and a
// resumed sweep's cache pass re-resolves them by run key, which is exactly
// how replay "skips cells already present in the store".
//
// One live coordinator owns a journal. Opening a journal compacts it by
// renaming a fresh file over the path, so a second coordinator opened on
// the same path orphans the first one's file; the first then refuses
// every submit (see Journal.submit) rather than acknowledge a job that no
// restart would recover.

// journalRecord is one NDJSON line of the write-ahead journal. Type is
// submit or done; Spec is set on submit only. Journals written by older
// builds also hold lease and cell records, which replay skips.
type journalRecord struct {
	Type  string          `json:"type"`
	Sweep string          `json:"sweep,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
}

// ErrJournalReplaced reports that the journal's path no longer names the
// file this coordinator appends to: another coordinator opened the same
// journal and compacted it, so submits written here would never be
// replayed.
var ErrJournalReplaced = errors.New("journal file was replaced by another coordinator; only one live coordinator may own a journal")

// Journal is the coordinator's append-only write-ahead log. Submit records
// are the durability contract: one that cannot land (closed journal,
// replaced file, failed write or fsync) is an error the scheduler turns
// into a refused job. Done records are best-effort in the same spirit as
// DiskStore.Put: a lost one is counted, and at worst a finished sweep is
// restored and served from the store on the next start.
type Journal struct {
	path string

	mu        sync.Mutex
	f         *os.File        // guarded by mu; nil once closed
	fi        os.FileInfo     // guarded by mu; identity of f, for the one-owner fence
	seen      map[string]bool // guarded by mu; sweep ids with a live submit record
	records   uint64          // guarded by mu
	bytes     int64           // guarded by mu
	appendErr uint64          // guarded by mu

	// recovered is set once at open and immutable afterwards.
	recovered []RecoveredSweep
}

// OpenJournal opens (creating it and its directory if needed) the journal
// at path, replays any existing records to reconstruct the incomplete
// sweeps — available from Recovered, in submission order — and compacts
// the file down to exactly those sweeps' records before reopening it for
// appends. A torn final
// line (the crash happened mid-append) and corrupt lines are skipped, not
// fatal: the journal gives up an unreadable record rather than refuse to
// start.
func OpenJournal(path string) (*Journal, error) {
	recovered, err := replayPath(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, seen: make(map[string]bool), recovered: recovered}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := j.compact(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	j.f, j.fi, j.bytes = f, fi, fi.Size()
	for _, rs := range j.recovered {
		j.seen[rs.ID] = true
	}
	j.mu.Unlock()
	return j, nil
}

// compact rewrites the journal to hold only the incomplete sweeps'
// submit records (atomically, via temp + rename in the same
// directory), so completed sweeps stop costing replay time and disk
// across restarts. A journal that replays empty becomes an empty file.
func (j *Journal) compact() error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, rs := range j.recovered {
		data, err := json.Marshal(journalRecord{Type: "submit", Sweep: rs.ID, Spec: rs.Spec})
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(append(data, '\n')); err != nil {
			tmp.Close()
			return err
		}
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
	return os.Rename(tmp.Name(), j.path)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Recovered returns the sweeps that were in flight when the journal was
// last written — the caller restores them (service.Restore) after wiring
// the coordinator up, and their cache pass skips every cell whose result
// already reached the store.
func (j *Journal) Recovered() []RecoveredSweep { return j.recovered }

// Stats snapshots the journal for /v1/healthz.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Path:            j.path,
		Records:         j.records,
		Bytes:           j.bytes,
		RecoveredSweeps: len(j.recovered),
		AppendErrors:    j.appendErr,
	}
}

// Close syncs and closes the journal; later submits fail and later done
// records are dropped and counted. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// submit records a job's intake. The spec is the verbatim grid JSON; the
// record is fsynced before submit returns, so an acknowledged submission
// survives kill -9. A sweep already on record (a recovered job, whose
// submit line survived compaction) is not written twice: submit answers
// service.ErrRecorded. Every call first checks that this coordinator still
// owns the journal: it fails with ErrJournalReplaced once another
// coordinator has compacted a new file over the path.
func (j *Journal) submit(id string, spec []byte) error {
	data, err := json.Marshal(journalRecord{Type: "submit", Sweep: id, Spec: json.RawMessage(spec)})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ownedLocked(); err != nil {
		j.appendErr++
		return err
	}
	if j.seen[id] {
		return service.ErrRecorded
	}
	if err := j.writeLocked(data); err != nil {
		return err
	}
	j.seen[id] = true
	return nil
}

// ownedLocked checks that the journal is open and that its path still
// names the open file.
func (j *Journal) ownedLocked() error {
	if j.f == nil {
		return errors.New("journal: closed")
	}
	cur, err := os.Stat(j.path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if !os.SameFile(j.fi, cur) {
		return ErrJournalReplaced
	}
	return nil
}

// done records a sweep reaching a terminal state (completed or cancelled);
// replay drops done sweeps and the next compaction reclaims their records.
// A failure is counted in AppendErrors, not returned.
func (j *Journal) done(sweep string) {
	data, err := json.Marshal(journalRecord{Type: "done", Sweep: sweep})
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil || j.f == nil {
		j.appendErr++
		return
	}
	_ = j.writeLocked(data) // counted in AppendErrors; a done is best-effort
}

// writeLocked appends one marshalled record and fsyncs it. A failure is
// counted in AppendErrors and returned.
func (j *Journal) writeLocked(data []byte) error {
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		j.appendErr++
		return fmt.Errorf("journal: %w", err)
	}
	j.records++
	j.bytes += int64(len(data) + 1)
	if err := j.f.Sync(); err != nil {
		j.appendErr++
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
