package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"reno/metrics"
)

// getBody returns a GET's body, failing the test unless it is 200 OK.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// resubmitCached submits spec and waits for a job served wholly from the
// cache.
func resubmitCached(t *testing.T, ts *httptest.Server, spec []byte) string {
	t.Helper()
	st := pollTerminal(t, ts, postGrid(t, ts, spec).ID)
	if st.State != StateDone || st.CacheHits != st.Runs || st.Simulated != 0 {
		t.Fatalf("resubmission not served from the cache: %+v", st)
	}
	return st.ID
}

// TestCachedWallClockResults: ?stable=0 on a fully cached job carries the
// wall-clock metrics the simulated job recorded, before and after a stable
// request has rendered the cached records once.
func TestCachedWallClockResults(t *testing.T) {
	spec := []byte(`{"benches":["gzip"],"renos":["BASE","RENO"],"max_insts":5000,"scale":0.2}`)
	_, ts := testServer(t, Config{Workers: 2})
	first := pollTerminal(t, ts, postGrid(t, ts, spec).ID)
	wall := getBody(t, ts.URL+"/v1/sweeps/"+first.ID+"/results?stable=0")
	rep, err := metrics.Decode(wall)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range rep.Records {
		if ns, _ := rec.Metrics.Count(metrics.RunWallNS); ns == 0 {
			t.Fatalf("simulated record %d has no wall-clock time", i)
		}
	}
	stable := getBody(t, ts.URL+"/v1/sweeps/"+first.ID+"/results")

	url := ts.URL + "/v1/sweeps/" + resubmitCached(t, ts, spec) + "/results"
	if got := getBody(t, url+"?stable=0"); !bytes.Equal(got, wall) {
		t.Fatalf("cached wall-clock envelope differs from the simulated job's:\n%s\n----\n%s", got, wall)
	}
	if got := getBody(t, url); !bytes.Equal(got, stable) {
		t.Fatalf("cached stable envelope differs from the simulated job's:\n%s\n----\n%s", got, stable)
	}
	if got := getBody(t, url+"?stable=0"); !bytes.Equal(got, wall) {
		t.Fatalf("cached wall-clock envelope after a stable one differs:\n%s\n----\n%s", got, wall)
	}
}

// TestConcurrentCachedResults: concurrent /results requests, stable and
// wall-clock, over two jobs served from the same cached results, one of
// them racing to render their shared records, all return the simulated
// job's bytes. Under -race this checks that the record memos share nothing
// writable.
func TestConcurrentCachedResults(t *testing.T) {
	spec := []byte(`{"benches":["gzip","gsm.de"],"renos":["BASE","RENO"],"max_insts":5000,"scale":0.2}`)
	_, ts := testServer(t, Config{Workers: 2})
	first := pollTerminal(t, ts, postGrid(t, ts, spec).ID)
	want := map[string][]byte{
		"":          getBody(t, ts.URL+"/v1/sweeps/"+first.ID+"/results"),
		"?stable=0": getBody(t, ts.URL+"/v1/sweeps/"+first.ID+"/results?stable=0"),
	}
	ids := []string{resubmitCached(t, ts, spec), resubmitCached(t, ts, spec)}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for q, w := range want {
			wg.Add(1)
			go func(url string, want []byte) {
				defer wg.Done()
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				got, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("GET %s: %d, %v, %d bytes differing from the simulated job's", url, resp.StatusCode, err, len(got))
				}
			}(ts.URL+"/v1/sweeps/"+ids[i%2]+"/results"+q, w)
		}
	}
	wg.Wait()
}

// TestCachedEventsPinned pins the NDJSON event bytes of a fully cached
// resubmission of the golden v2 grid. Its run events arrive in job order,
// so the stream is deterministic. A deliberate change to the event form
// regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestCachedEventsPinned ./internal/service/
func TestCachedEventsPinned(t *testing.T) {
	spec, err := os.ReadFile(goldenV2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Workers: 2})
	pollTerminal(t, ts, postGrid(t, ts, spec).ID)
	got := getBody(t, ts.URL+"/v1/sweeps/"+resubmitCached(t, ts, spec)+"/events")

	golden := filepath.Join("testdata", "events_cached_grid_v2.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the pin)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cached event stream differs from %s:\n got %s\nwant %s", golden, got, want)
	}
}
