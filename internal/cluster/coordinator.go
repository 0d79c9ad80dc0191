package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"reno/internal/service"
	"reno/internal/sweep"
)

// DefaultLeaseTTL is the lease lifetime when CoordinatorConfig leaves it
// zero. Workers heartbeat at a third of the TTL, so the default tolerates
// two consecutive lost heartbeats before requeueing a batch.
const DefaultLeaseTTL = 10 * time.Second

// DefaultMaxAttempts bounds how many times a cell that workers *report* as
// failed (simulation error, unparseable spec) is retried on another lease
// before the coordinator settles it as a failed result. Worker crashes
// don't count against the budget — those cells simply requeue.
const DefaultMaxAttempts = 3

// CoordinatorConfig parameterizes a Coordinator; the zero value works.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted batch survives without a heartbeat.
	LeaseTTL time.Duration
	// MaxAttempts bounds retries of worker-reported cell failures.
	MaxAttempts int
	// Clock substitutes a fake time source in tests; nil means time.Now.
	Clock func() time.Time
	// Journal, when non-nil, makes job state durable: submits and
	// completions are logged so a restart resumes in-flight sweeps (see
	// OpenJournal). The coordinator owns the journal from here on and
	// closes it in Close.
	Journal *Journal
}

// Coordinator shards sweep cells across HTTP workers. It implements
// service.Dispatcher, so renoserve plugs it into the scheduler where the
// in-process sweep pool normally sits: jobs queue, cancel, stream events,
// and persist results exactly as in standalone mode — only the execution
// of expanded cells moves off-box.
type Coordinator struct {
	ttl         time.Duration
	maxAttempts int
	clock       func() time.Time
	leases      *leaseTable
	journal     *Journal // nil when durability is not configured

	mu      sync.Mutex
	sweeps  map[string]*dispatch   // guarded by mu
	order   []string               // guarded by mu
	workers map[string]*workerInfo // guarded by mu

	duplicates uint64 // guarded by mu
}

// workerInfo is the coordinator's liveness and accounting row for one
// worker name; all fields are guarded by Coordinator.mu.
type workerInfo struct {
	lastSeen  time.Time
	leases    uint64
	cellsDone uint64
}

// dispatch is one in-flight sweep. The identity fields are immutable. The
// queue and result state below them are mutated only while holding the
// owning Coordinator's mutex — a cross-struct discipline lockcheck cannot
// express, so it is documented here instead of per-field: Dispatch itself
// touches them only before the dispatch is registered (no concurrency yet)
// and inside methods that take Coordinator.mu.
type dispatch struct {
	id       string
	spec     []byte
	jobs     []sweep.Job
	keys     []string
	publish  func(service.Event)
	progress func(sweep.RunInfo)

	results   []*sweep.Result // one per job; nil until the cell settles
	attempts  []int           // worker-reported failures per cell
	pending   []int           // unsettled cells awaiting a lease, grant order
	done      int             // settled cells (cached + uploaded + failed)
	remaining int             // unsettled cells; 0 closes doneCh
	doneCh    chan struct{}
}

// NewCoordinator returns a Coordinator ready to serve workers; mount its
// Handler and pass it as service.Config.Dispatcher.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Coordinator{
		ttl:         cfg.LeaseTTL,
		maxAttempts: cfg.MaxAttempts,
		clock:       cfg.Clock,
		leases:      newLeaseTable(cfg.LeaseTTL, cfg.Clock),
		journal:     cfg.Journal,
		sweeps:      make(map[string]*dispatch),
		workers:     make(map[string]*workerInfo),
	}
}

// Close closes the journal. It does not cancel in-flight dispatches —
// draining those is the scheduler's job — and is idempotent and safe
// against concurrent request handling: requests after Close still work,
// they just lose done records; a submit after Close is refused by the
// closed journal.
func (c *Coordinator) Close() error {
	if c.journal != nil {
		return c.journal.Close()
	}
	return nil
}

// JournalSubmit implements service.Journaler: the scheduler records every
// accepted job before queueing it, so jobs waiting for a runner survive a
// crash too, not just jobs that reached Dispatch. An error refuses the job.
func (c *Coordinator) JournalSubmit(id string, spec []byte) error {
	if c.journal == nil {
		return nil
	}
	return c.journal.submit(id, spec)
}

// JournalSettled implements service.Journaler: a job that reached a
// terminal state without ever dispatching (cancelled while queued) must
// be marked done or a restart would resurrect it.
func (c *Coordinator) JournalSettled(id string) {
	if c.journal != nil {
		c.journal.done(id)
	}
}

// Dispatch implements service.Dispatcher: it resolves cached cells through
// opts.Lookup exactly as the in-process pool would, queues the rest for
// lease grants, and blocks until every cell settles or ctx is cancelled.
// The contract it honors is sweep.RunContext's: one non-nil result per
// job, in job order; Lookup serial and first; Progress serialized (under
// the coordinator mutex), once per cell.
func (c *Coordinator) Dispatch(ctx context.Context, id string, spec []byte, jobs []sweep.Job, opts sweep.Options, publish func(service.Event)) []*sweep.Result {
	d := &dispatch{
		id:       id,
		spec:     spec,
		jobs:     jobs,
		keys:     make([]string, len(jobs)),
		publish:  publish,
		progress: opts.Progress,
		results:  make([]*sweep.Result, len(jobs)),
		attempts: make([]int, len(jobs)),
		doneCh:   make(chan struct{}),
	}
	for i, j := range jobs {
		d.keys[i] = j.Key(opts)
	}
	// Serial cache pass before anything executes, mirroring the pool: a
	// fully cached resubmission returns here without a single lease.
	if opts.Lookup != nil {
		for i := range jobs {
			if r := opts.Lookup(d.keys[i]); r != nil {
				d.results[i] = r
				d.done++
				if d.progress != nil {
					d.progress(sweep.RunInfo{Done: d.done, Total: len(jobs), Index: i, Key: d.keys[i], Cached: true, Result: r})
				}
			}
		}
	}
	for i := range jobs {
		if d.results[i] == nil {
			d.pending = append(d.pending, i)
		}
	}
	d.remaining = len(d.pending)
	if d.remaining == 0 {
		if c.journal != nil {
			c.journal.done(id)
		}
		return d.results
	}

	c.mu.Lock()
	c.sweeps[id] = d
	c.order = append(c.order, id)
	c.mu.Unlock()

	select {
	case <-d.doneCh:
		c.retire(d)
		return d.results
	case <-ctx.Done():
		c.cancel(d, ctx.Err())
		return d.results
	}
}

// retire removes a completed sweep from the scheduler's view.
func (c *Coordinator) retire(d *dispatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropSweepLocked(d)
}

// cancel settles every unfinished cell with the cancellation error so the
// scheduler sees the same shape a cancelled in-process run produces: a
// full, job-ordered slice with Err set on the cells that never ran.
func (c *Coordinator) cancel(d *dispatch, cause error) {
	if cause == nil {
		cause = errors.New("sweep cancelled")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropSweepLocked(d)
	for i, r := range d.results {
		if r != nil {
			continue
		}
		d.results[i] = sweep.NewErrorResult(d.jobs[i], cause.Error())
		d.done++
		if d.progress != nil {
			d.progress(sweep.RunInfo{Done: d.done, Total: len(d.jobs), Index: i, Key: d.keys[i], Result: d.results[i]})
		}
	}
}

func (c *Coordinator) dropSweepLocked(d *dispatch) {
	delete(c.sweeps, d.id)
	for i, id := range c.order {
		if id == d.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.leases.DropSweep(d.id)
	// Journal appends under Coordinator.mu are fine: the lock order is
	// always Coordinator.mu → Journal.mu, never the reverse.
	if c.journal != nil {
		c.journal.done(d.id)
	}
}

// reapLocked requeues the incomplete cells of every expired lease; it is
// the only way a cell changes hands. It runs at the top of every lease,
// heartbeat and state request: nothing acts on an expired lease until a
// request arrives, so checking then is enough. Cells a dead worker already
// uploaded stay settled — expiry costs only the unfinished remainder.
func (c *Coordinator) reapLocked() {
	for _, ex := range c.leases.Expire() {
		d := c.sweeps[ex.sweep]
		if d == nil {
			continue
		}
		requeued := 0
		for _, cell := range ex.cells {
			if d.results[cell] == nil {
				d.pending = append(d.pending, cell)
				requeued++
			}
		}
		if d.publish != nil {
			d.publish(service.Event{Type: "lease", Lease: ex.id, Worker: ex.worker, Cells: requeued, Action: "expired"})
		}
	}
}

// grant hands the next batch to a worker: pending cells from the oldest
// sweep with any. ok is false when nothing is pending — every unsettled
// cell is leased, and an idle worker waits for a lease to expire.
func (c *Coordinator) grant(req LeaseRequest) (LeaseGrant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchLocked(req.Worker)
	c.reapLocked()
	activeLeases, _ := c.leases.Counts()
	for _, id := range c.order {
		d := c.sweeps[id]
		if len(d.pending) == 0 {
			continue
		}
		n := NextBatch(len(d.pending), activeLeases, req.Capacity)
		cells := append([]int(nil), d.pending[:n]...)
		d.pending = d.pending[n:]
		lid := c.leases.Grant(req.Worker, id, cells)
		w.leases++
		if d.publish != nil {
			d.publish(service.Event{Type: "lease", Lease: lid, Worker: req.Worker, Cells: len(cells), Action: "granted"})
		}
		return LeaseGrant{Lease: lid, Sweep: id, Spec: d.spec, Cells: cells, TTLMillis: c.ttl.Milliseconds()}, true
	}
	return LeaseGrant{}, false
}

// heartbeat renews a lease; it reports false when the lease is gone and
// the worker should abandon the batch.
func (c *Coordinator) heartbeat(req Heartbeat) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.Worker)
	c.reapLocked()
	return c.leases.Renew(req.Lease)
}

// upload ingests finished cells. First complete upload wins per cell;
// later copies — a reaped worker racing its replacement — count as
// duplicates, never double.
// Entries are honored even when the quoted lease has expired: finished
// work is never discarded.
func (c *Coordinator) upload(req UploadRequest) UploadReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.Worker)
	d := c.sweeps[req.Sweep]
	if d == nil {
		return UploadReply{Stale: true}
	}
	var rep UploadReply
	for _, cu := range req.Results {
		if cu.Cell < 0 || cu.Cell >= len(d.results) {
			continue // malformed entry; nothing it could settle
		}
		if d.results[cu.Cell] != nil {
			rep.Duplicate++
			c.duplicates++
			continue
		}
		if cu.Err != "" {
			rep.Requeued += c.failCellLocked(d, cu.Cell, cu.Err)
			continue
		}
		key, r, err := sweep.DecodeResult(cu.Record)
		if err != nil {
			rep.Requeued += c.failCellLocked(d, cu.Cell, fmt.Sprintf("bad record from %s: %v", req.Worker, err))
			continue
		}
		if key != d.keys[cu.Cell] {
			rep.Requeued += c.failCellLocked(d, cu.Cell, fmt.Sprintf("key mismatch from %s: got %s want %s", req.Worker, key, d.keys[cu.Cell]))
			continue
		}
		c.settleCellLocked(d, cu.Cell, r, req.Worker)
		rep.Accepted++
	}
	return rep
}

// settleCellLocked records a cell's final result, releases it from its
// lease or the pending queue (a reaped lease's late upload settles a cell
// that was already requeued), reports progress, and completes the sweep
// when it was the last.
func (c *Coordinator) settleCellLocked(d *dispatch, cell int, r *sweep.Result, worker string) {
	d.results[cell] = r
	c.leases.CompleteCell(d.id, cell)
	d.pending = slices.DeleteFunc(d.pending, func(p int) bool { return p == cell })
	if w := c.workers[worker]; w != nil {
		w.cellsDone++
	}
	d.done++
	d.remaining--
	if d.progress != nil {
		d.progress(sweep.RunInfo{Done: d.done, Total: len(d.jobs), Index: cell, Key: d.keys[cell], Result: r})
	}
	if d.remaining == 0 {
		close(d.doneCh)
	}
}

// failCellLocked handles a worker-reported cell failure: requeue while the
// attempt budget lasts (returning 1), else settle the cell as a failed
// result (returning 0).
func (c *Coordinator) failCellLocked(d *dispatch, cell int, msg string) int {
	d.attempts[cell]++
	if d.attempts[cell] < c.maxAttempts {
		c.leases.CompleteCell(d.id, cell)
		if !slices.Contains(d.pending, cell) { // a reaped lease's cell is already back
			d.pending = append(d.pending, cell)
		}
		return 1
	}
	c.settleCellLocked(d, cell, sweep.NewErrorResult(d.jobs[cell], msg), "")
	return 0
}

// touchLocked records worker liveness and returns its accounting row.
func (c *Coordinator) touchLocked(worker string) *workerInfo {
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{}
		c.workers[worker] = w
	}
	w.lastSeen = c.clock()
	return w
}

// ClusterStats implements service.ClusterReporter; /v1/healthz embeds the
// snapshot under "cluster".
func (c *Coordinator) ClusterStats() any { return c.stats() }

func (c *Coordinator) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	var st Stats
	st.ActiveSweeps = len(c.sweeps)
	for _, id := range c.order {
		st.PendingCells += len(c.sweeps[id].pending)
	}
	st.ActiveLeases, st.LeasedCells = c.leases.Counts()
	st.LeasesGranted, st.LeasesRenewed, st.LeasesExpired = c.leases.Lifetime()
	st.DuplicateResults = c.duplicates
	if c.journal != nil {
		js := c.journal.Stats()
		st.Journal = &js
	}
	now := c.clock()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		st.Workers = append(st.Workers, WorkerStatus{
			ID:             name,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
			Leases:         w.leases,
			CellsDone:      w.cellsDone,
		})
	}
	return st
}

// maxBodyBytes bounds a protocol request body; a full upload batch of
// result records for a wide grid stays well under this.
const maxBodyBytes = 8 << 20

// Handler serves the worker-facing protocol; renoserve mounts it next to
// the public API when running as coordinator.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		g, ok := c.grant(req)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, g)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req Heartbeat
		if !readJSON(w, r, &req) {
			return
		}
		if !c.heartbeat(req) {
			writeJSON(w, http.StatusGone, struct {
				Error string `json:"error"`
			}{"lease " + req.Lease + " is gone"})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/cluster/results", func(w http.ResponseWriter, r *http.Request) {
		var req UploadRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, c.upload(req))
	})
	mux.HandleFunc("GET /v1/cluster/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.stats())
	})
	return mux
}

// readJSON decodes a bounded JSON body, answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, struct {
			Error string `json:"error"`
		}{err.Error()})
		return false
	}
	return true
}

// writeJSON emits v as a JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
