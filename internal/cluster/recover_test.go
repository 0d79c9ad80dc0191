package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"reno/internal/service"
)

// closeFast settles everything still in flight (cancelled, like an expired
// drain budget) and tears the pair down.
func closeFast(svc *service.Service, coord *Coordinator) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	svc.Close(ctx)
	coord.Close()
}

// TestCoordinatorCrashRecovery is the tentpole property, in-process: a
// coordinator with a journal settles part of a sweep and "crashes" (is
// abandoned without any shutdown); a second coordinator opens the same
// journal and store, restores the job under its original ID, leases out
// only the unsettled cells — the settled ones ride the store as cache
// hits — and finishes with an envelope byte-identical to a standalone run.
func TestCoordinatorCrashRecovery(t *testing.T) {
	storeDir := t.TempDir()
	jpath := filepath.Join(storeDir, "journal.ndjson")
	spec, _, keys, records := testGrid(t, fourCellSpec)

	// Life 1: submit, settle cells 0 and 1 through a worker upload, crash.
	j1, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, Journal: j1})
	svc1, err := service.New(service.Config{Dispatcher: coord1, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFast(svc1, coord1) }) // post-mortem tidy-up; the "crash" is the abandonment below
	job1, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job1.ID() != "sw-000001" {
		t.Fatalf("first job id %s", job1.ID())
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord1.stats().ActiveSweeps != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	g, ok := coord1.grant(LeaseRequest{Worker: "w1", Capacity: 1})
	if !ok || len(g.Cells) != 2 {
		t.Fatalf("grant %+v ok=%v, want cells [0 1]", g, ok)
	}
	for _, cell := range g.Cells {
		rep := coord1.upload(UploadRequest{Worker: "w1", Lease: g.Lease, Sweep: job1.ID(),
			Results: []CellUpload{{Cell: cell, Key: keys[cell], Record: records[cell]}}})
		if rep.Accepted != 1 {
			t.Fatalf("upload cell %d: %+v", cell, rep)
		}
	}
	// kill -9: no Close, no drain, no journal sync beyond what already
	// happened on the append path. The journal holds the submit and
	// nothing about leases or settled cells: those live in the lease
	// table and the store. Everything from here is life 2.
	if got := journalTypes(t, jpath); len(got) != 1 || got[0] != "submit" {
		t.Fatalf("journal at crash holds %v, want [submit]", got)
	}

	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	rec := j2.Recovered()
	if len(rec) != 1 || rec[0].ID != job1.ID() {
		t.Fatalf("recovered %+v, want %s", rec, job1.ID())
	}
	coord2 := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, Journal: j2})
	svc2, err := service.New(service.Config{Dispatcher: coord2, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFast(svc2, coord2) })
	restored, err := svc2.Restore(rec[0].ID, rec[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for coord2.stats().ActiveSweeps != 1 {
		if time.Now().After(deadline) {
			t.Fatal("restored sweep never dispatched")
		}
		time.Sleep(time.Millisecond)
	}

	// Only the unsettled cells 2 and 3 may reach a lease: cells whose
	// results are already in the store were resolved by the cache pass.
	var leased []int
	for {
		g, ok := coord2.grant(LeaseRequest{Worker: "w2", Capacity: 4})
		if !ok {
			break
		}
		leased = append(leased, g.Cells...)
		for _, cell := range g.Cells {
			coord2.upload(UploadRequest{Worker: "w2", Lease: g.Lease, Sweep: restored.ID(),
				Results: []CellUpload{{Cell: cell, Key: keys[cell], Record: records[cell]}}})
		}
	}
	sort.Ints(leased)
	if len(leased) != 2 || leased[0] != 2 || leased[1] != 3 {
		t.Fatalf("recovery leased cells %v, want exactly the unsettled [2 3]", leased)
	}

	st := waitTerminal(t, restored)
	if st.State != service.StateDone {
		t.Fatalf("restored job ended %s: %+v", st.State, st)
	}
	if st.CacheHits != 2 || st.Simulated != 2 {
		t.Errorf("restored job cache_hits=%d simulated=%d, want 2 and 2 (settled cells must not re-simulate)", st.CacheHits, st.Simulated)
	}
	if got, want := stableBytes(t, restored), standaloneBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatal("recovered envelope differs from standalone")
	}

	// The sequence counter advanced past the restored ID: no collisions.
	next, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "sw-000002" {
		t.Errorf("post-restore submission got %s, want sw-000002", next.ID())
	}
	waitTerminal(t, next) // fully cached by now; completes without workers
}

// TestJournalReplayVsConcurrentSubmit races Restore (journal replay
// feeding the scheduler) against fresh Submits — run under -race in CI.
// Restored IDs interleave with new ones without collisions, the job index
// stays sorted (JobsPage binary-searches it), and later submissions get
// IDs beyond every restored sequence number.
func TestJournalReplayVsConcurrentSubmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	spec, _, _, _ := testGrid(t, twoCellSpec)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"sw-000100", "sw-000101"} {
		if err := j.submit(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, Journal: j2})
	svc, err := service.New(service.Config{Dispatcher: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFast(svc, coord) })

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, rs := range j2.Recovered() {
			if _, err := svc.Restore(rs.ID, rs.Spec); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := svc.Submit(spec); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	jobs := svc.Jobs()
	if len(jobs) != 5 {
		t.Fatalf("%d jobs after replay+submit, want 5", len(jobs))
	}
	ids := make([]string, len(jobs))
	seen := map[string]bool{}
	for i, jb := range jobs {
		ids[i] = jb.ID()
		if seen[ids[i]] {
			t.Fatalf("duplicate job id %s", ids[i])
		}
		seen[ids[i]] = true
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("job index out of order: %v", ids)
	}
	// Paginate through the interleaved index: every job, no repeats.
	var paged []string
	for cursor := ""; ; {
		page, next := svc.JobsPage(cursor, 2)
		for _, jb := range page {
			paged = append(paged, jb.ID())
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if len(paged) != 5 || !sort.StringsAreSorted(paged) {
		t.Fatalf("pagination over interleaved index: %v", paged)
	}
	// New IDs never collide with restored ones: the counter is beyond 101.
	last, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if last.ID() <= "sw-000101" {
		t.Fatalf("post-replay submission got %s, want an id past sw-000101", last.ID())
	}
}

// TestSubmitSkipsRecoveredID: a fresh submission that arrives before a
// recovered sweep is restored must not take the recovered sweep's ID,
// which its original client still holds.
func TestSubmitSkipsRecoveredID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	spec, _, _, _ := testGrid(t, twoCellSpec)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submit("sw-000001", spec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, Journal: j2})
	svc, err := service.New(service.Config{Dispatcher: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFast(svc, coord) })

	fresh, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "sw-000002" {
		t.Errorf("fresh submission got %s, want sw-000002 (sw-000001 is recovered)", fresh.ID())
	}
	if _, err := svc.Restore("sw-000001", j2.Recovered()[0].Spec); err != nil {
		t.Fatalf("restore after a fresh submission: %v", err)
	}
}

// TestRestoreSkipsRejectedBackend: a journal written by a build that still
// accepted the approx backend holds an unfinished approx sweep ahead of a
// functional one. Recovery refuses the first with an error naming the
// backend, restores and completes the second, and a fresh submission is
// numbered past both.
func TestRestoreSkipsRejectedBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	approxSpec := []byte(`{"version":2,"benches":["gzip"],"renos":["BASE","RENO"],"max_insts":2000,"scale":0.1,"backend":"approx"}`)
	fnSpec := []byte(`{"version":2,"benches":["gzip"],"renos":["BASE","RENO"],"max_insts":2000,"scale":0.1,"backend":"functional"}`)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submit("sw-000001", approxSpec); err != nil {
		t.Fatal(err)
	}
	if err := j.submit("sw-000002", fnSpec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := j2.Recovered()
	if len(rec) != 2 || rec[0].ID != "sw-000001" || rec[1].ID != "sw-000002" {
		t.Fatalf("recovered %+v, want sw-000001 and sw-000002", rec)
	}
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, Journal: j2})
	svc, err := service.New(service.Config{Dispatcher: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFast(svc, coord) })
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	startWorkerAt(t, ts.URL, "w1", nil)

	if _, err := svc.Restore(rec[0].ID, rec[0].Spec); err == nil {
		t.Fatal("approx sweep restored")
	} else if !strings.Contains(err.Error(), "approx") {
		t.Errorf("restore error %q does not name the rejected backend", err)
	}
	restored, err := svc.Restore(rec[1].ID, rec[1].Spec)
	if err != nil {
		t.Fatalf("functional sweep behind a rejected one: %v", err)
	}
	if st := waitTerminal(t, restored); st.State != service.StateDone {
		t.Fatalf("restored functional sweep ended %s: %+v", st.State, st)
	}

	fresh, err := svc.Submit(fnSpec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "sw-000003" {
		t.Errorf("fresh submission got %s, want sw-000003 (past both journaled IDs)", fresh.ID())
	}
	waitTerminal(t, fresh)
}
