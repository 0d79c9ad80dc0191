package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"reno/internal/sweep"
)

// fakeCoordinator is a scriptable coordinator endpoint for exercising the
// worker's client side in isolation.
type fakeCoordinator struct {
	beats     atomic.Int64
	uploads   atomic.Int64
	goneAfter int64 // heartbeats answered 204 before switching to 410
	stale     bool  // answer every upload as stale
}

func (f *fakeCoordinator) server(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if f.beats.Add(1) > f.goneAfter {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/cluster/results", func(w http.ResponseWriter, r *http.Request) {
		var req UploadRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.uploads.Add(int64(len(req.Results)))
		writeJSON(w, http.StatusOK, UploadReply{Accepted: len(req.Results), Stale: f.stale})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func testWorker(t *testing.T, url string) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{ID: "w1", Coordinator: url})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerHeartbeatRenewsThenAbandons: the heartbeat loop beats at a
// fraction of the TTL while the lease is alive, and the moment the
// coordinator answers 410 it cancels the batch and stops beating — the
// worker never keeps simulating cells it no longer owns.
func TestWorkerHeartbeatRenewsThenAbandons(t *testing.T) {
	fake := &fakeCoordinator{goneAfter: 3}
	w := testWorker(t, fake.server(t).URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	g := &LeaseGrant{Lease: "ls-000001", Sweep: "sw-1", TTLMillis: 60}
	go w.heartbeatLoop(ctx, cancel, g, done)

	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat loop never reacted to the 410")
	}
	<-done
	if n := fake.beats.Load(); n != 4 {
		t.Errorf("coordinator saw %d heartbeats, want 3 renewals + the fatal one", n)
	}
	if w.Stats().LeasesLost != 1 {
		t.Errorf("stats %+v, want one lost lease", w.Stats())
	}
	// No further beats after abandonment.
	before := fake.beats.Load()
	time.Sleep(100 * time.Millisecond)
	if after := fake.beats.Load(); after != before {
		t.Errorf("loop kept beating after cancel: %d → %d", before, after)
	}
}

// TestWorkerStaleUploadAbandonsBatch: an upload answered "stale" (the
// sweep finished or was cancelled without us) cancels the rest of the
// batch instead of burning pool time on unwanted cells.
func TestWorkerStaleUploadAbandonsBatch(t *testing.T) {
	fake := &fakeCoordinator{stale: true, goneAfter: 1 << 30}
	w := testWorker(t, fake.server(t).URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &sweep.Result{Bench: "gzip", Hash: "x"}
	g := &LeaseGrant{Lease: "ls-000001", Sweep: "sw-1", TTLMillis: 60}
	w.uploadCell(ctx, cancel, g, sweep.RunInfo{Index: 0, Key: "k", Result: r})
	if ctx.Err() == nil {
		t.Fatal("stale upload did not cancel the batch")
	}
	if fake.uploads.Load() != 1 {
		t.Errorf("uploads %d, want 1", fake.uploads.Load())
	}
}

// TestWorkerLocallyCancelledCellNotReported: a cell that failed because
// the batch context died is the coordinator's to requeue — reporting it as
// a cell failure would burn the retry budget on a healthy cell.
func TestWorkerLocallyCancelledCellNotReported(t *testing.T) {
	fake := &fakeCoordinator{goneAfter: 1 << 30}
	w := testWorker(t, fake.server(t).URL)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &sweep.Result{Bench: "gzip", Err: "sweep: canceled"}
	w.uploadCell(ctx, cancel, &LeaseGrant{Lease: "l", Sweep: "s"}, sweep.RunInfo{Index: 0, Key: "k", Result: r})
	if n := fake.uploads.Load(); n != 0 {
		t.Errorf("cancelled cell reported %d uploads, want 0", n)
	}
}
