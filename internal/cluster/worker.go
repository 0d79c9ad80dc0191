package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"reno/internal/service"
	"reno/internal/sweep"
)

// DefaultPoll is how long an idle worker waits between lease requests when
// the coordinator has nothing to hand out.
const DefaultPoll = 500 * time.Millisecond

// WorkerConfig parameterizes a Worker; ID and the coordinator address are
// required.
type WorkerConfig struct {
	// ID names this worker in lease requests and cluster state.
	ID string
	// Coordinator is the coordinator's base URL ("http://host:port"). A
	// coordinator that restarts at the same address is found again by
	// the worker's back-off and repoll.
	Coordinator string
	// Capacity is the local sweep pool width; <= 0 means GOMAXPROCS.
	Capacity int
	// Poll is the idle retry interval; zero means DefaultPoll.
	Poll time.Duration
	// Store, when non-nil, is consulted before simulating a cell and
	// updated after — pointing every node at one shared store directory
	// makes the cluster's cache cluster-wide. A worker keeps no memory
	// tier: every lookup reads the directory.
	Store *service.DiskStore
	// Client overrides the HTTP client (tests); nil means a default with
	// a request timeout well under any sane lease TTL.
	Client *http.Client
	// Clock substitutes a fake time source in tests; nil means time.Now.
	Clock func() time.Time
	// Seed seeds the coordinator-loss backoff jitter, so a chaos run is
	// reproducible from a single seed. Zero derives a stable per-worker
	// seed from ID (workers still decorrelate, runs still reproduce).
	Seed int64
}

// WorkerStats counts a worker's lifetime activity, served on its own
// /v1/healthz under "worker".
type WorkerStats struct {
	ID             string `json:"id"`
	Leases         uint64 `json:"leases"`
	CellsSimulated uint64 `json:"cells_simulated"`
	CellsCached    uint64 `json:"cells_cached"`
	CellsUploaded  uint64 `json:"cells_uploaded"`
	CellsFailed    uint64 `json:"cells_failed"`
	UploadErrors   uint64 `json:"upload_errors"`
	LeasesLost     uint64 `json:"leases_lost"`
}

// Worker pulls leased cell batches from a coordinator, runs them through
// the in-process sweep pool (consulting the shared result store first),
// and streams each finished cell back as it completes — so a crash only
// ever strands the cells still in flight.
type Worker struct {
	cfg     WorkerConfig
	client  *http.Client
	clock   func() time.Time
	started time.Time

	mu    sync.Mutex
	stats WorkerStats // guarded by mu
	rng   *rand.Rand  // guarded by mu; seeded backoff jitter
}

// NewWorker returns a Worker ready for Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster worker: empty worker id")
	}
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster worker: no coordinator address")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(cfg.ID))
		seed = int64(h.Sum64())
	}
	return &Worker{
		cfg:     cfg,
		client:  client,
		clock:   clock,
		started: clock(),
		stats:   WorkerStats{ID: cfg.ID},
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// jitter returns a duration in [0, limit) from the worker's seeded PRNG.
// Jitter decorrelates backoff across workers hammering a dead
// coordinator, without giving up reproducibility: the sequence is a pure
// function of the configured seed.
func (w *Worker) jitter(limit time.Duration) time.Duration {
	if limit <= 0 {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Duration(w.rng.Int63n(int64(limit)))
}

// Run executes the worker loop until ctx is cancelled: request a lease,
// execute it, repeat; sleep through idle answers and back off through
// coordinator outages. Always returns ctx's error.
func (w *Worker) Run(ctx context.Context) error {
	const maxBackoff = 5 * time.Second
	backoff := 100 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, ok, err := w.requestLease(ctx)
		if err != nil {
			sleepCtx(ctx, backoff+w.jitter(backoff/2))
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if !ok {
			sleepCtx(ctx, w.cfg.Poll)
			continue
		}
		w.bump(func(s *WorkerStats) { s.Leases++ })
		w.execute(ctx, grant)
	}
}

// execute runs one granted batch: re-expand the grid, run the leased cells
// through the sweep pool with the shared store in front, upload each cell
// as it finishes, and heartbeat until the batch is done or the lease dies.
func (w *Worker) execute(ctx context.Context, g *LeaseGrant) {
	grid, err := sweep.ParseGridJSON(g.Spec)
	if err != nil {
		w.reportBatchFailure(ctx, g, fmt.Sprintf("worker %s: parse spec: %v", w.cfg.ID, err))
		return
	}
	jobs, err := grid.Expand()
	if err != nil {
		w.reportBatchFailure(ctx, g, fmt.Sprintf("worker %s: expand grid: %v", w.cfg.ID, err))
		return
	}
	for _, cell := range g.Cells {
		if cell < 0 || cell >= len(jobs) {
			// The coordinator expanded a different cell list than we
			// did — a version skew serious enough to refuse the batch.
			w.reportBatchFailure(ctx, g, fmt.Sprintf("worker %s: cell %d outside grid of %d", w.cfg.ID, cell, len(jobs)))
			return
		}
	}

	// The lease context ends the batch early when the heartbeat loop
	// learns the lease is gone or an upload learns the sweep is gone:
	// the pool stops picking up cells and in-flight runs are abandoned.
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go w.heartbeatLoop(lctx, cancel, g, hbDone)

	opts := grid.Options()
	opts.Workers = w.cfg.Capacity
	if w.cfg.Store != nil {
		opts.Lookup = w.cfg.Store.Get
	}
	opts.Progress = func(ri sweep.RunInfo) {
		if ri.Cached {
			w.bump(func(s *WorkerStats) { s.CellsCached++ })
		} else {
			w.bump(func(s *WorkerStats) { s.CellsSimulated++ })
			if w.cfg.Store != nil {
				w.cfg.Store.Put(ri.Key, ri.Result)
			}
		}
		w.uploadCell(lctx, cancel, g, ri)
	}
	sweep.RunIndices(lctx, jobs, g.Cells, opts)
	cancel()
	<-hbDone
}

// uploadCell sends one finished cell, retrying transient failures while
// the lease context lasts. Cells that failed because the batch was
// abandoned are not reported — they are the coordinator's to requeue.
func (w *Worker) uploadCell(ctx context.Context, cancel context.CancelFunc, g *LeaseGrant, ri sweep.RunInfo) {
	entry := CellUpload{Cell: ri.Index, Key: ri.Key}
	if r := ri.Result; r.Err != "" {
		if ctx.Err() != nil {
			return // local cancellation, not a cell failure
		}
		entry.Err = r.Err
	} else {
		rec, err := sweep.EncodeResult(ri.Key, r)
		if err != nil {
			entry.Err = fmt.Sprintf("worker %s: encode: %v", w.cfg.ID, err)
		} else {
			entry.Record = rec
		}
	}
	if entry.Err != "" {
		w.bump(func(s *WorkerStats) { s.CellsFailed++ })
	}
	req := UploadRequest{Worker: w.cfg.ID, Lease: g.Lease, Sweep: g.Sweep, Results: []CellUpload{entry}}
	for attempt := 0; attempt < 3; attempt++ {
		var rep UploadReply
		status, err := w.post(ctx, "/v1/cluster/results", req, &rep)
		if err != nil || status != http.StatusOK {
			sleepCtx(ctx, time.Duration(attempt+1)*200*time.Millisecond)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		if rep.Stale {
			cancel() // sweep is gone; stop burning cycles on the batch
			return
		}
		w.bump(func(s *WorkerStats) { s.CellsUploaded += uint64(rep.Accepted) })
		return
	}
	w.bump(func(s *WorkerStats) { s.UploadErrors++ })
}

// reportBatchFailure marks every leased cell failed in one upload; the
// coordinator retries them elsewhere until its attempt budget is spent.
func (w *Worker) reportBatchFailure(ctx context.Context, g *LeaseGrant, msg string) {
	w.bump(func(s *WorkerStats) { s.CellsFailed += uint64(len(g.Cells)) })
	req := UploadRequest{Worker: w.cfg.ID, Lease: g.Lease, Sweep: g.Sweep}
	for _, cell := range g.Cells {
		req.Results = append(req.Results, CellUpload{Cell: cell, Err: msg})
	}
	var rep UploadReply
	if _, err := w.post(ctx, "/v1/cluster/results", req, &rep); err != nil {
		w.bump(func(s *WorkerStats) { s.UploadErrors++ })
	}
}

// heartbeatLoop renews the lease at a third of its TTL and cancels the
// batch when the coordinator reports the lease gone — expired and
// requeued, or its sweep finished without us.
func (w *Worker) heartbeatLoop(ctx context.Context, cancel context.CancelFunc, g *LeaseGrant, done chan<- struct{}) {
	defer close(done)
	interval := time.Duration(g.TTLMillis) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, err := w.post(ctx, "/v1/cluster/heartbeat", Heartbeat{Worker: w.cfg.ID, Lease: g.Lease}, nil)
			if err != nil {
				continue // transient; the TTL absorbs a missed beat
			}
			if status == http.StatusGone {
				w.bump(func(s *WorkerStats) { s.LeasesLost++ })
				cancel()
				return
			}
		}
	}
}

// requestLease asks the coordinator for work. ok is false on an
// idle 204.
func (w *Worker) requestLease(ctx context.Context) (*LeaseGrant, bool, error) {
	var g LeaseGrant
	status, err := w.post(ctx, "/v1/cluster/lease", LeaseRequest{Worker: w.cfg.ID, Capacity: w.cfg.Capacity}, &g)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case http.StatusOK:
		return &g, true, nil
	case http.StatusNoContent:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster worker: lease request: HTTP %d", status)
	}
}

// post sends one JSON request to the coordinator and decodes a
// 200 response into out.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
			return 0, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// bump applies a counter update under the stats lock.
func (w *Worker) bump(f func(*WorkerStats)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	f(&w.stats)
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Handler serves the worker's own observability surface: /v1/healthz with
// the same build/uptime identity the coordinator reports, plus the
// worker's counters.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, struct {
			Status        string        `json:"status"`
			Role          string        `json:"role"`
			Build         service.Build `json:"build"`
			UptimeSeconds int64         `json:"uptime_s"`
			Worker        WorkerStats   `json:"worker"`
		}{"ok", "worker", service.BuildIdentity(), int64(w.clock().Sub(w.started).Seconds()), w.Stats()})
	})
	return mux
}

// sleepCtx pauses for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
