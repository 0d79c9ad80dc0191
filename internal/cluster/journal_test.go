package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reno/internal/service"
)

// journalTypes returns the record type of every line in the journal file.
func journalTypes(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		types = append(types, rec.Type)
	}
	return types
}

// TestJournalRoundTripAndCompaction: records written through the journal
// replay into exactly the incomplete sweeps, duplicate submits collapse,
// done sweeps are dropped by compaction, and the reopened file holds only
// what recovery needs.
func TestJournalRoundTripAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Recovered(); len(got) != 0 {
		t.Fatalf("fresh journal recovered %d sweeps", len(got))
	}
	for _, sub := range []struct{ id, spec string }{
		{"sw-000001", `{"benches":["gzip"]}`},
		{"sw-000002", `{"benches":["bzip2"]}`},
	} {
		if err := j.submit(sub.id, []byte(sub.spec)); err != nil {
			t.Fatalf("submit %s: %v", sub.id, err)
		}
	}
	// A second submit of a recorded sweep writes nothing and says so.
	if err := j.submit("sw-000001", []byte(`{"benches":["gzip"]}`)); !errors.Is(err, service.ErrRecorded) {
		t.Fatalf("duplicate submit: %v, want service.ErrRecorded", err)
	}
	j.done("sw-000002")
	if st := j.Stats(); st.Records != 3 || st.AppendErrors != 0 {
		t.Fatalf("stats after writes: %+v, want 3 records (one submit deduped)", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v, want idempotent nil", err)
	}
	// A submit after Close is refused; a done is dropped and counted.
	if err := j.submit("sw-000099", []byte(`{}`)); err == nil {
		t.Error("submit after Close succeeded")
	}
	j.done("sw-000099")
	if st := j.Stats(); st.AppendErrors != 2 {
		t.Errorf("append errors after Close: %d, want 2", st.AppendErrors)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rec := j2.Recovered()
	if len(rec) != 1 || rec[0].ID != "sw-000001" {
		t.Fatalf("recovered %+v, want exactly sw-000001 (sw-000002 was done)", rec)
	}
	if !bytes.Equal(rec[0].Spec, []byte(`{"benches":["gzip"]}`)) {
		t.Errorf("recovered spec %s", rec[0].Spec)
	}
	if st := j2.Stats(); st.RecoveredSweeps != 1 {
		t.Errorf("stats %+v, want RecoveredSweeps 1", st)
	}
	// Compaction rewrote the file down to the incomplete sweep's submit:
	// the done sweep costs nothing across restarts.
	if got := journalTypes(t, path); len(got) != 1 || got[0] != "submit" {
		t.Errorf("compacted journal records %v, want [submit]", got)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final line (and
// arbitrary corruption may precede it); replay keeps everything that
// decodes and never refuses to start.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	content := `{"type":"submit","sweep":"sw-000004","spec":{"benches":["gzip"]}}` + "\n" +
		`not json at all` + "\n" +
		`{"type":"submit","sweep":"sw-000005","spec":{"ben` // torn tail, no newline
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := j.Recovered()
	if len(rec) != 1 || rec[0].ID != "sw-000004" {
		t.Fatalf("recovered %+v, want exactly the intact sw-000004", rec)
	}

	// The reopened (compacted) journal accepts appends and a further
	// replay sees both the old and the new records.
	if err := j.submit("sw-000006", []byte(`{"benches":["gap"]}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Recovered(); len(got) != 2 || got[0].ID != "sw-000004" || got[1].ID != "sw-000006" {
		t.Fatalf("after reopen: %+v, want sw-000004 then sw-000006", got)
	}
}

// parentFormatJournal is a journal as builds that also logged lease
// transitions and settled cells wrote it: submits, grants, cells, renews,
// a steal, an expiry, a done, and a torn final append.
const parentFormatJournal = `{"type":"submit","sweep":"sw-000001","spec":{"benches":["gzip"],"renos":["BASE","RENO"]}}
{"type":"submit","sweep":"sw-000002","spec":{"benches":["bzip2"]}}
{"type":"grant","sweep":"sw-000001","lease":"ls-000001","worker":"w1","cells":[0,1]}
{"type":"submit","sweep":"sw-000001","spec":{"benches":["gzip"],"renos":["BASE","RENO"]}}
{"type":"cell","sweep":"sw-000001","cell":0,"key":"k0"}
{"type":"renew","lease":"ls-000001","worker":"w1"}
{"type":"grant","sweep":"sw-000002","lease":"ls-000002","worker":"w2","cells":[0]}
{"type":"cell","sweep":"sw-000002","cell":0,"key":"kb","error":"boom"}
{"type":"done","sweep":"sw-000002"}
{"type":"submit","sweep":"sw-000003","spec":{"benches":["gap"],"seeds":[0,1]}}
{"type":"steal","sweep":"sw-000001","lease":"ls-000003","worker":"w2","cells":[1]}
{"type":"expire","sweep":"sw-000001","lease":"ls-000001","worker":"w1"}
{"type":"cell","sweep":"sw-000003","cell":1,"key":"k3"}
{"type":"submit","sweep":"sw-000004","spec":{"bench`

// TestJournalReplaysParentFormat: a journal that still holds lease and
// cell records replays to the same sweeps, specs and order the records
// imply, without treating the old types as corruption, and compaction
// rewrites it to submit lines only.
func TestJournalReplaysParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(path, []byte(parentFormatJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []RecoveredSweep{
		{ID: "sw-000001", Spec: json.RawMessage(`{"benches":["gzip"],"renos":["BASE","RENO"]}`)},
		{ID: "sw-000003", Spec: json.RawMessage(`{"benches":["gap"],"seeds":[0,1]}`)},
	}
	check := func(got []RecoveredSweep) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("recovered %d sweeps %+v, want %d", len(got), got, len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || !bytes.Equal(got[i].Spec, want[i].Spec) {
				t.Errorf("sweep %d: got %s %s, want %s %s", i, got[i].ID, got[i].Spec, want[i].ID, want[i].Spec)
			}
		}
	}
	check(j.Recovered())
	j.Close()
	if got := journalTypes(t, path); len(got) != 2 || got[0] != "submit" || got[1] != "submit" {
		t.Errorf("compacted journal records %v, want [submit submit]", got)
	}
	// The compacted file replays to the same sweeps.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2.Recovered())
}

// TestJournalTakeoverRefusesSubmit: two coordinators on one journal path.
// Opening the second compacts a new file over the path, so the first one's
// appends land in an orphaned file no restart reads. The first must
// refuse submissions from then on, and a refused job leaves no trace.
func TestJournalTakeoverRefusesSubmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	spec, _, _, _ := testGrid(t, twoCellSpec)

	ja, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	coordA := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, Journal: ja})
	svcA, err := service.New(service.Config{Dispatcher: coordA})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFast(svcA, coordA) })

	jb, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })

	job, err := svcA.Submit(spec)
	if err == nil {
		t.Fatalf("submit to the displaced coordinator was acknowledged as %s; its journal record is lost", job.ID())
	}
	if !errors.Is(err, service.ErrJournal) || !errors.Is(err, ErrJournalReplaced) {
		t.Errorf("refusal %v, want service.ErrJournal wrapping ErrJournalReplaced", err)
	}
	if jobs := svcA.Jobs(); len(jobs) != 0 {
		t.Errorf("refused submit left %d jobs behind", len(jobs))
	}

	// The journal's owner still accepts and records submissions.
	if err := jb.submit("sw-000001", spec); err != nil {
		t.Fatalf("submit to the owning journal: %v", err)
	}
}

// TestJournalCreatesDirectory: a coordinator started on a -store that does
// not exist yet opens its journal there instead of failing to start.
func TestJournalCreatesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new-store", "journal.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.submit("sw-000001", []byte(`{"benches":["gzip"]}`)); err != nil {
		t.Fatal(err)
	}
}
