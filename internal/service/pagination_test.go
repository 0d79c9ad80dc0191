package service

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// tinySpec finishes in milliseconds; pagination tests just need job rows.
var tinySpec = []byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":1000,"scale":0.1}`)

// TestJobsPageWalksAllJobs: the cursor walk visits every job exactly once,
// in submission order, and the final page has no cursor.
func TestJobsPageWalksAllJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer closeNow(t, s)
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, runToDone(t, s, tinySpec).ID())
	}

	var got []string
	cursor, pages := "", 0
	for {
		jobs, next := s.JobsPage(cursor, 2)
		pages++
		for _, j := range jobs {
			got = append(got, j.ID())
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if pages != 3 {
		t.Errorf("walk took %d pages of 2 over 5 jobs, want 3", pages)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("walk visited %v, want %v", got, want)
	}
	// A cursor no job matches (deleted, or plain wrong) resumes from the
	// next id after it rather than failing.
	if jobs, _ := s.JobsPage("sw-000000", 10); len(jobs) != 5 {
		t.Errorf("pre-first cursor returned %d jobs, want all 5", len(jobs))
	}
	if jobs, next := s.JobsPage(want[4], 10); len(jobs) != 0 || next != "" {
		t.Errorf("past-the-end cursor returned %d jobs, next %q", len(jobs), next)
	}
}

// TestListEndpointPagination: the HTTP surface — default cap, explicit
// limit with next_cursor, clamped and rejected limits, cursor resume.
func TestListEndpointPagination(t *testing.T) {
	defer func(n int) { DefaultListLimit = n }(DefaultListLimit)
	DefaultListLimit = 3

	s, ts := testServer(t, Config{Workers: 1})
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, runToDone(t, s, tinySpec).ID())
	}

	type page struct {
		Sweeps     []Status `json:"sweeps"`
		NextCursor string   `json:"next_cursor"`
	}
	var p page
	if code := getJSON(t, ts.URL+"/v1/sweeps", &p); code != http.StatusOK {
		t.Fatalf("GET /v1/sweeps: %d", code)
	}
	if len(p.Sweeps) != 3 || p.NextCursor != ids[2] {
		t.Fatalf("default page: %d sweeps, cursor %q; want 3 ending at %s", len(p.Sweeps), p.NextCursor, ids[2])
	}
	cursor := p.NextCursor
	p = page{} // next_cursor is omitempty: reset so its absence is visible
	if code := getJSON(t, ts.URL+"/v1/sweeps?cursor="+cursor, &p); code != http.StatusOK {
		t.Fatal("cursor resume failed")
	}
	if len(p.Sweeps) != 2 || p.NextCursor != "" || p.Sweeps[0].ID != ids[3] {
		t.Fatalf("final page: %+v, want jobs 4..5 and no cursor", p)
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps?limit=2", &p); code != http.StatusOK || len(p.Sweeps) != 2 {
		t.Errorf("explicit limit: code %d, %d sweeps", code, len(p.Sweeps))
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps?limit=1000000", &p); code != http.StatusOK || len(p.Sweeps) != 5 {
		t.Errorf("oversized limit must clamp, not fail: code %d, %d sweeps", code, len(p.Sweeps))
	}
	for _, bad := range []string{"0", "-1", "x"} {
		if code := getJSON(t, ts.URL+"/v1/sweeps?limit="+bad, nil); code != http.StatusBadRequest {
			t.Errorf("limit=%s: code %d, want 400", bad, code)
		}
	}
}

// TestHealthzBuildAndUptime: /v1/healthz identifies the binary (toolchain
// always; commit when VCS-stamped) and reports uptime, alongside the
// existing scheduler stats.
func TestHealthzBuildAndUptime(t *testing.T) {
	_, ts := testServer(t, Config{})
	var h struct {
		Status string `json:"status"`
		Build  struct {
			GoVersion string `json:"go_version"`
			Revision  string `json:"revision"`
		} `json:"build"`
		UptimeSeconds *int64 `json:"uptime_s"`
		Jobs          *int   `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("GET /v1/healthz: %d", code)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Build.GoVersion == "" {
		t.Error("healthz build has no go_version (debug.ReadBuildInfo failed?)")
	}
	if h.UptimeSeconds == nil || *h.UptimeSeconds < 0 {
		t.Errorf("uptime_s %v, want a non-negative integer", h.UptimeSeconds)
	}
	if h.Jobs == nil {
		t.Error("healthz lost the scheduler stats (jobs field)")
	}
	if BuildIdentity() != BuildIdentity() {
		t.Error("BuildIdentity not stable")
	}
}

// TestDiskStoreConcurrentSharedDir: two DiskStore instances over one
// directory — the cluster's shared-store deployment — with writers racing
// on overlapping keys while readers spin. Atomic temp+rename writes mean
// a reader sees a complete record or a miss, never a torn file; run under
// -race this also proves the in-process index is coherent.
func TestDiskStoreConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	const keys = 64
	var wg sync.WaitGroup
	writer := func(s *DiskStore, name string) {
		defer wg.Done()
		for i := 0; i < keys; i++ {
			s.Put(key16(i), fakeResult(name))
		}
	}
	reader := func(s *DiskStore) {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			for i := 0; i < keys; i++ {
				if r := s.Get(key16(i)); r != nil && r.Cycles != 100 {
					t.Errorf("torn read: key %s cycles %d", key16(i), r.Cycles)
				}
			}
		}
	}
	wg.Add(4)
	go writer(a, "gzip")
	go writer(b, "gzip")
	go reader(a)
	go reader(b)
	wg.Wait()

	// Every key must be durable and readable through both instances.
	for i := 0; i < keys; i++ {
		if a.Get(key16(i)) == nil || b.Get(key16(i)) == nil {
			t.Fatalf("key %s lost after concurrent writes", key16(i))
		}
	}
	if n := a.Stats().Entries; n != keys {
		t.Errorf("store holds %d entries, want %d", n, keys)
	}
}
