package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"reno/internal/service"
)

// testCluster is an in-process cluster: a coordinator-backed service, the
// worker-facing protocol on a real HTTP listener, and any number of
// workers pulling from it.
type testCluster struct {
	coord *Coordinator
	svc   *service.Service
	ts    *httptest.Server
}

func startCluster(t *testing.T, ttl time.Duration, storeDir string) *testCluster {
	t.Helper()
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: ttl})
	svc, err := service.New(service.Config{Dispatcher: coord, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Close(ctx)
		coord.Close()
	})
	return &testCluster{coord: coord, svc: svc, ts: ts}
}

// startWorker runs a worker against the cluster and returns a kill switch
// that abandons everything it holds, mid-cell — the in-process equivalent
// of kill -9 as far as the coordinator can observe.
func (tc *testCluster) startWorker(t *testing.T, id string, store service.ResultStore) (*Worker, context.CancelFunc) {
	t.Helper()
	return startWorkerAt(t, tc.ts.URL, id, store)
}

// startWorkerAt runs a worker against an arbitrary coordinator URL.
func startWorkerAt(t *testing.T, url, id string, store service.ResultStore) (*Worker, context.CancelFunc) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		ID: id, Coordinators: []string{url}, Capacity: 2,
		Poll: 10 * time.Millisecond, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return w, cancel
}

// waitTerminal polls a job to its terminal state.
func waitTerminal(t *testing.T, j *service.Job) service.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stableBytes renders a job's stable envelope.
func stableBytes(t *testing.T, j *service.Job) []byte {
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

// standaloneBytes runs the same spec on an in-process pool — the
// byte-identity reference.
func standaloneBytes(t *testing.T, spec []byte) []byte {
	t.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != service.StateDone {
		t.Fatalf("standalone reference run ended %s", st.State)
	}
	return stableBytes(t, j)
}

const fourCellSpec = `{"benches":["gzip"],"renos":["BASE","RENO"],"seeds":[0,1],"max_insts":2000,"scale":0.1}`

// TestClusterEndToEnd is the subsystem's acceptance property: a grid
// sharded over two workers completes, assembles an envelope byte-identical
// to a standalone run, publishes lease events on the job stream — and a
// resubmission is served entirely from the coordinator's cache, with zero
// new work for any worker.
func TestClusterEndToEnd(t *testing.T) {
	spec := []byte(fourCellSpec)
	tc := startCluster(t, 5*time.Second, "")
	w1, _ := tc.startWorker(t, "w1", nil)
	w2, _ := tc.startWorker(t, "w2", nil)

	j, err := tc.svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != service.StateDone {
		t.Fatalf("cluster run ended %s: %+v", st.State, st)
	}
	if got, want := stableBytes(t, j), standaloneBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("cluster envelope differs from standalone:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	evs, _, _, _ := j.Events(0)
	granted := 0
	for _, ev := range evs {
		if ev.Type == "lease" && ev.Action == "granted" {
			granted++
			if ev.Worker != "w1" && ev.Worker != "w2" {
				t.Errorf("lease event names unknown worker %q", ev.Worker)
			}
		}
	}
	if granted == 0 {
		t.Error("no lease-granted events on the job stream")
	}
	// At least 4, not exactly: a work-steal may re-run a cell its victim
	// is still simulating, and both copies count. First-upload-wins keeps
	// the duplicate out of the results, which the byte-identity check on
	// the resubmission below covers.
	if done := w1.Stats().CellsSimulated + w2.Stats().CellsSimulated; done < 4 {
		t.Errorf("workers simulated %d cells, want at least 4", done)
	}

	// Resubmission: 100% cache hits on the coordinator, not one lease
	// granted, not one cell simulated anywhere.
	before := tc.coord.stats().LeasesGranted
	sim1, sim2 := w1.Stats().CellsSimulated, w2.Stats().CellsSimulated
	j2, err := tc.svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, j2)
	if st2.State != service.StateDone || st2.CacheHits != 4 || st2.Simulated != 0 {
		t.Fatalf("resubmission not fully cached: %+v", st2)
	}
	if after := tc.coord.stats().LeasesGranted; after != before {
		t.Errorf("resubmission granted %d leases, want 0", after-before)
	}
	if w1.Stats().CellsSimulated != sim1 || w2.Stats().CellsSimulated != sim2 {
		t.Error("resubmission reached a worker pool")
	}
	if !bytes.Equal(stableBytes(t, j2), stableBytes(t, j)) {
		t.Error("cached resubmission envelope differs")
	}
}

// TestClusterWorkerCrashMidSweep kills a worker mid-lease and proves the
// sweep still completes, byte-identical: the dead worker's lease expires,
// its unfinished cells requeue, and the survivor finishes them.
func TestClusterWorkerCrashMidSweep(t *testing.T) {
	// Heavy enough that w1 cannot finish before the kill lands.
	spec := []byte(`{"benches":["gzip"],"renos":["BASE","RENO"],"seeds":[0,1,2],"max_insts":300000}`)
	tc := startCluster(t, 500*time.Millisecond, "")
	_, kill := tc.startWorker(t, "w1", nil)

	j, err := tc.svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until w1 owns a lease, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for tc.coord.stats().ActiveLeases == 0 {
		if time.Now().After(deadline) {
			t.Fatal("w1 never took a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()

	tc.startWorker(t, "w2", nil)
	st := waitTerminal(t, j)
	if st.State != service.StateDone {
		t.Fatalf("sweep ended %s after worker crash: %+v", st.State, st)
	}
	if got, want := stableBytes(t, j), standaloneBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatal("post-crash envelope differs from standalone")
	}
	if exp := tc.coord.stats().LeasesExpired; exp == 0 {
		t.Error("crash did not surface as a lease expiry")
	}
}

// TestClusterSharedStore points both roles at one store directory: cells a
// worker simulates land in the shared store, so a fresh coordinator-side
// service — or another worker — reuses them without resimulating.
func TestClusterSharedStore(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(fourCellSpec)
	tc := startCluster(t, 5*time.Second, dir)
	wstore, err := service.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := tc.startWorker(t, "w1", wstore)

	j, err := tc.svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != service.StateDone {
		t.Fatalf("run ended %s", st.State)
	}
	if w1.Stats().CellsSimulated != 4 {
		t.Fatalf("w1 simulated %d cells, want 4", w1.Stats().CellsSimulated)
	}

	// A second worker sharing the directory, pulling from a fresh
	// coordinator with a cold cache, serves every cell from the store:
	// leases happen, simulations don't.
	coord2 := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second})
	svc2, err := service.New(service.Config{Dispatcher: coord2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc2.Close(ctx)
		coord2.Close()
	}()
	ts2 := httptest.NewServer(coord2.Handler())
	defer ts2.Close()
	w2store, err := service.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := startWorkerAt(t, ts2.URL, "w2", w2store)

	j2, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2); st.State != service.StateDone {
		t.Fatalf("second run ended %s", st.State)
	}
	if w2.Stats().CellsSimulated != 0 || w2.Stats().CellsCached != 4 {
		t.Fatalf("w2 stats %+v, want all 4 cells served from the shared store", w2.Stats())
	}
	if !bytes.Equal(stableBytes(t, j2), stableBytes(t, j)) {
		t.Error("shared-store envelope differs")
	}
}
