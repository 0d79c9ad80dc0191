package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"reno/internal/sweep"
	"reno/metrics"
	"reno/sim"
)

// goldenV2 is the checked-in golden v2 grid (inline machine and RENO
// overrides) that CI also drives through the daemon.
const goldenV2 = "../sweep/testdata/grid_v2.json"

// testServer wires a Service into an httptest server and tears both down.
func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := mustNew(t, cfg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		closeNow(t, svc)
	})
	return svc, ts
}

// postGrid submits a grid and returns the decoded status.
func postGrid(t *testing.T, ts *httptest.Server, spec []byte) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Error("POST response has no Location header")
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status body %s: %v", body, err)
	}
	return st
}

// getJSON fetches a URL and decodes its JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: body %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// pollTerminal polls the status endpoint until the job settles.
func pollTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st Status
		if code := getJSON(t, ts.URL+"/v1/sweeps/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not settle: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResults returns the stable results envelope bytes.
func fetchResults(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results: %d %s", resp.StatusCode, body)
	}
	return body
}

// cliStableBytes produces what `renosweep -grid <spec> -stable` emits for
// the same grid, through the same public facade path the CLI uses.
func cliStableBytes(t *testing.T, spec []byte) []byte {
	t.Helper()
	g, err := sim.ParseGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := sim.RunGrid(context.Background(), g, sim.GridOptions{Stable: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gr.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep.Tool = "renosweep"
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readEvents consumes a job's NDJSON stream to the end (the job must reach
// a terminal state for the stream to close) and returns the decoded lines.
func readEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestServiceEndToEnd drives the acceptance flow over HTTP: the golden v2
// grid runs to done; its results are byte-identical to the CLI's -stable
// output; an immediate resubmission is served 100% from cache with zero
// new simulations and returns the same bytes; events, registry, and
// healthz behave as documented.
func TestServiceEndToEnd(t *testing.T) {
	spec, err := os.ReadFile(goldenV2)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := testServer(t, Config{Workers: 2})

	// Cold submission: everything simulates.
	st := postGrid(t, ts, spec)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}
	st = pollTerminal(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job settled %s: %+v", st.State, st)
	}
	if st.Runs != 4 || st.Done != 4 || st.Simulated != 4 || st.CacheHits != 0 {
		t.Fatalf("cold run counters: %+v", st)
	}
	coldSim := svc.Simulated()

	got := fetchResults(t, ts, st.ID)
	if rep, err := metrics.Decode(got); err != nil {
		t.Fatalf("results do not decode as reno.metrics/v1: %v", err)
	} else if rep.Tool != "renosweep" {
		t.Errorf("results tool %q", rep.Tool)
	}
	want := cliStableBytes(t, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("served results differ from renosweep -stable output:\nserved: %d bytes\ncli:    %d bytes", len(got), len(want))
	}

	evs := readEvents(t, ts, st.ID)
	runs, cachedRuns := 0, 0
	for _, ev := range evs {
		if ev.Type == "run" {
			runs++
			if ev.Cached {
				cachedRuns++
			}
			if ev.RunKey == "" || ev.RunHash == "" {
				t.Errorf("run event lacks key/hash: %+v", ev)
			}
		}
	}
	if runs != 4 || cachedRuns != 0 {
		t.Errorf("cold events: %d runs (%d cached), want 4 (0)", runs, cachedRuns)
	}
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != StateDone {
		t.Errorf("stream does not end on the terminal state: %+v", last)
	}

	// Resubmission: 100% cache hits, zero new simulations, same bytes.
	st2 := pollTerminal(t, ts, postGrid(t, ts, spec).ID)
	if st2.State != StateDone {
		t.Fatalf("resubmission settled %s", st2.State)
	}
	if st2.CacheHits != 4 || st2.Simulated != 0 {
		t.Fatalf("resubmission counters: %+v", st2)
	}
	if svc.Simulated() != coldSim {
		t.Fatalf("resubmission executed %d new pipeline runs", svc.Simulated()-coldSim)
	}
	if got2 := fetchResults(t, ts, st2.ID); !bytes.Equal(got2, got) {
		t.Error("cache-served results differ from the first submission's bytes")
	}
	for _, ev := range readEvents(t, ts, st2.ID) {
		if ev.Type == "run" && !ev.Cached {
			t.Errorf("resubmitted run not served from cache: %+v", ev)
		}
	}

	// Discovery and health.
	var reg sim.Registry
	if code := getJSON(t, ts.URL+"/v1/registry", &reg); code != http.StatusOK {
		t.Fatalf("GET registry: %d", code)
	}
	if len(reg.Benchmarks) == 0 || len(reg.Machines) == 0 || len(reg.Configs) == 0 {
		t.Errorf("registry listing incomplete: %+v", reg)
	}
	var health struct {
		Status string `json:"status"`
		Stats
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET healthz: %d", code)
	}
	if health.Status != "ok" || health.Jobs != 2 || health.CacheEntries != 4 || health.CacheHits != 4 {
		t.Errorf("healthz: %+v", health)
	}
	var list struct {
		Sweeps []Status `json:"sweeps"`
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps", &list); code != http.StatusOK || len(list.Sweeps) != 2 {
		t.Errorf("GET sweeps: code %d, %d jobs", code, len(list.Sweeps))
	}
}

// TestCancellationReturnsPartialEnvelope cancels an in-flight job over
// HTTP and checks the partial-results contract: before cancellation the
// results endpoint conflicts; after it, a valid envelope arrives with one
// record per run, the completed ones intact and the interrupted remainder
// carrying error attrs.
func TestCancellationReturnsPartialEnvelope(t *testing.T) {
	// One worker and a dozen full-budget runs: the sweep is guaranteed to
	// still be in flight when the first per-run event arrives.
	spec := []byte(`{"benches":["gzip","gsm.de"],"renos":["BASE","RENO"],"seeds":[0,1,2],"max_insts":300000}`)
	_, ts := testServer(t, Config{Workers: 1})

	st := postGrid(t, ts, spec)

	// Follow the event stream just far enough to know a run completed.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sawRun := false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "run" {
			sawRun = true
			break
		}
	}
	if !sawRun {
		t.Fatal("event stream ended before any run completed")
	}

	// Still running: results must conflict.
	if code := getJSON(t, ts.URL+"/v1/sweeps/"+st.ID+"/results", nil); code != http.StatusConflict {
		t.Fatalf("results while running: %d, want 409", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}

	fin := pollTerminal(t, ts, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state %s after cancel, want cancelled", fin.State)
	}

	body := fetchResults(t, ts, st.ID)
	rep, err := metrics.Decode(body)
	if err != nil {
		t.Fatalf("partial envelope does not decode: %v", err)
	}
	if len(rep.Records) != fin.Runs {
		t.Fatalf("partial envelope has %d records, want %d", len(rep.Records), fin.Runs)
	}
	complete, interrupted := 0, 0
	for _, rec := range rep.Records {
		if rec.Attr(metrics.AttrError) != "" {
			interrupted++
		} else {
			complete++
		}
	}
	if complete == 0 || interrupted == 0 {
		t.Errorf("partial envelope: %d complete, %d interrupted; want both nonzero", complete, interrupted)
	}

	// A second DELETE removes the settled job's record entirely.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	dresp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var del struct {
		Deleted bool `json:"deleted"`
	}
	body2, _ := io.ReadAll(dresp2.Body)
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusOK || json.Unmarshal(body2, &del) != nil || !del.Deleted {
		t.Errorf("DELETE on terminal job: %d %s, want 200 deleted", dresp2.StatusCode, body2)
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps/"+st.ID, nil); code != http.StatusNotFound {
		t.Errorf("GET after delete: %d, want 404", code)
	}
}

// TestDrainRefusesSubmissions pins the shutdown-ordering contract: once
// intake stops (the first step of renoserve's signal handling), POST
// /v1/sweeps refuses with 503 + Retry-After while every read endpoint —
// status, results, events, healthz — keeps serving the draining jobs.
func TestDrainRefusesSubmissions(t *testing.T) {
	// A long job holds the only runner so the drain has something in flight.
	long := []byte(`{"benches":["gzip","gsm.de"],"renos":["BASE","RENO"],"seeds":[0,1,2],"max_insts":300000}`)
	svc, ts := testServer(t, Config{Workers: 1})
	st := postGrid(t, ts, long)

	svc.StopIntake()

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"benches":["gzip"],"max_insts":1000,"scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 during drain has no Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "draining") {
		t.Errorf("drain error body %q (err %v)", body, err)
	}

	// Read endpoints stay up for the jobs still draining.
	var got Status
	if code := getJSON(t, ts.URL+"/v1/sweeps/"+st.ID, &got); code != http.StatusOK || got.ID != st.ID {
		t.Errorf("GET status during drain: %d %+v", code, got)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK || !health.Draining {
		t.Errorf("healthz during drain: %d %+v", code, health)
	}

	// Let closeNow's drain finish promptly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	if dresp, err := http.DefaultClient.Do(req); err == nil {
		dresp.Body.Close()
	}
	pollTerminal(t, ts, st.ID)
}

// refusingJournal is a Dispatcher whose journal refuses every submit, as
// a cluster coordinator does once another coordinator owns its journal.
type refusingJournal struct{}

func (refusingJournal) Dispatch(context.Context, string, []byte, []sweep.Job, sweep.Options, func(Event)) []*sweep.Result {
	panic("a refused job must never dispatch")
}
func (refusingJournal) JournalSubmit(string, []byte) error { return errors.New("journal replaced") }
func (refusingJournal) JournalSettled(string)              {}

// TestJournalRefusalIs503: a job the dispatcher cannot journal is refused
// like a draining service's (503 + Retry-After), and leaves no job behind.
func TestJournalRefusalIs503(t *testing.T) {
	svc, ts := testServer(t, Config{Dispatcher: refusingJournal{}})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"benches":["gzip"],"max_insts":1000,"scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST with a refusing journal: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 for a journal refusal has no Retry-After header")
	}
	if !strings.Contains(string(body), "journal") {
		t.Errorf("refusal body %q does not name the journal", body)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("refused submit left %d jobs behind", len(jobs))
	}
	if _, err := svc.Restore("sw-000007", []byte(`{"benches":["gzip"],"max_insts":1000,"scale":0.1}`)); !errors.Is(err, ErrJournal) {
		t.Errorf("Restore with a refusing journal: %v, want ErrJournal", err)
	}
}

// TestHTTPErrors pins the error surface: validation failures are 400s
// carrying the field-level message, unknown IDs are 404s, and both come as
// the uniform {"error": ...} body.
func TestHTTPErrors(t *testing.T) {
	_, ts := testServer(t, Config{})

	post := func(spec string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		body, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body %q: %v", body, err)
		}
		return resp.StatusCode, e.Error
	}
	if code, msg := post(`{"benches":["gzp"]}`); code != http.StatusBadRequest || !strings.Contains(msg, "gzp") {
		t.Errorf("unknown bench: %d %q", code, msg)
	}
	if code, msg := post(`{"benches":["gzip"],"machines":[{"base":"4w"}]}`); code != http.StatusBadRequest || !strings.Contains(msg, `"version": 2`) {
		t.Errorf("v1 inline spec: %d %q", code, msg)
	}

	for _, path := range []string{"/v1/sweeps/sw-999999", "/v1/sweeps/sw-999999/results", "/v1/sweeps/sw-999999/events"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/sweeps", ts.URL), nil); code != http.StatusOK {
		t.Errorf("GET /v1/sweeps: %d", code)
	}
}

// TestResultsRefusedEnvelopeIs500: an envelope Encode refuses reaches the
// client as a 500 with the uniform error body, never as an empty 200;
// Encode checks every value before writing, so nothing else was sent.
func TestResultsRefusedEnvelopeIs500(t *testing.T) {
	for name, rep := range map[string]*metrics.Report{
		"record without metrics": {Schema: metrics.SchemaV1, Records: []metrics.Record{{}}},
		"spec that is not JSON":  {Schema: metrics.SchemaV1, Spec: json.RawMessage("{")},
	} {
		rec := httptest.NewRecorder()
		writeEnvelope(rec, rep)
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
			t.Errorf("%s: HTTP %d, body %q", name, rec.Code, rec.Body.Bytes())
		}
	}
}
