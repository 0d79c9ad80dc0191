// Package service is the serving layer behind the renoserve daemon: a
// long-running sweep service with a bounded job scheduler, an in-memory job
// store, a run-key result cache (optionally tiered over a persistent
// content-addressed disk store — see Cache and DiskStore), and streaming
// per-run progress.
//
// A submitted grid (the same JSON schema cmd/renosweep consumes, validated
// with the same field-level errors) becomes a Job that moves through the
// states queued → running → done/failed/cancelled. Jobs execute one sweep
// at a time per runner on the internal/sweep worker pool; before anything
// is simulated, every expanded run is looked up in the Cache by its stable
// run key (sweep.Job.Key — a hash over all outcome-determining inputs), so
// resubmitting a grid whose cells have already been computed serves them
// from cache with zero new simulations. Per-run completions are recorded as
// Events that subscribers stream (the daemon's NDJSON endpoint); jobs can
// be cancelled individually, and Close drains the service gracefully on
// shutdown — in-flight runs record partial results, exactly as a SIGINT'd
// renosweep would.
//
// The HTTP surface over this package lives in http.go (NewHandler);
// cmd/renoserve is a thin flag parser over both. See docs/service.md for
// the API contract.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reno/internal/sweep"
	"reno/metrics"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued → running → one of the three terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // every run succeeded, audit clean
	StateFailed    State = "failed"    // ≥1 run failed or the audit warned
	StateCancelled State = "cancelled" // cancelled by request or shutdown
)

// Terminal reports whether the state is final: the job will never run
// again and its results (possibly partial) are available.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's progress stream, serialized as a line of
// the daemon's NDJSON events endpoint. Type "run" records one completed
// run; type "state" records a lifecycle transition; type "lease" records a
// cluster scheduling event (lease granted or expired — emitted
// only when the service runs behind a cluster dispatcher). Every cluster
// field is omitempty, so standalone event streams are byte-identical to
// their pre-cluster form.
type Event struct {
	Type string `json:"type"` // "run", "state", or "lease"

	// Run-completion fields (Type "run").
	Done      int     `json:"done,omitempty"`
	Total     int     `json:"total,omitempty"`
	Bench     string  `json:"bench,omitempty"`
	Tag       string  `json:"tag,omitempty"` // "machine/config[@s<seed>]"
	IPC       float64 `json:"ipc,omitempty"`
	ElimTotal float64 `json:"elim_total,omitempty"`
	RunHash   string  `json:"run_hash,omitempty"` // stable outcome hash
	RunKey    string  `json:"run_key,omitempty"`  // stable cache identity
	Cached    bool    `json:"cached,omitempty"`   // served from the cache
	Err       string  `json:"error,omitempty"`    // non-empty: the run failed

	// Lifecycle field (Type "state").
	State State `json:"state,omitempty"`

	// Cluster fields (Type "lease"): which worker held which lease over how
	// many cells, and what happened to it ("granted" or "expired").
	Worker string `json:"worker,omitempty"`
	Lease  string `json:"lease,omitempty"`
	Cells  int    `json:"cells,omitempty"`
	Action string `json:"action,omitempty"`
}

// Status is a point-in-time job snapshot: identity, lifecycle state,
// progress counters, and the cache-hit statistics the /v1/sweeps/{id}
// endpoint reports. Timestamps are RFC 3339 ("" = not reached yet).
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Runs is the expanded grid size; Done counts completed runs
	// (simulated or cache-served), Failed the completed runs with errors.
	Runs   int `json:"runs"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// CacheHits counts runs served from the result cache; Simulated
	// counts runs actually executed on the pipeline. For a finished job
	// CacheHits + Simulated == Done.
	CacheHits int `json:"cache_hits"`
	Simulated int `json:"simulated"`
	// AuditWarnings counts architectural-equivalence violations, known
	// once the job finishes.
	AuditWarnings int    `json:"audit_warnings"`
	Created       string `json:"created"`
	Started       string `json:"started,omitempty"`
	Finished      string `json:"finished,omitempty"`
}

// Job is one submitted sweep: the parsed grid, its expansion, and the
// job's mutable lifecycle. All methods are safe for concurrent use.
type Job struct {
	id      string
	spec    []byte // submitted grid JSON, verbatim
	grid    sweep.Grid
	jobs    []sweep.Job
	created time.Time

	mu        sync.Mutex
	update    chan struct{}      // guarded by mu; closed and replaced on every event/state change
	state     State              // guarded by mu
	cancel    context.CancelFunc // guarded by mu; set while running
	cancelled bool               // guarded by mu; cancellation requested
	started   time.Time          // guarded by mu
	finished  time.Time          // guarded by mu
	done      int                // guarded by mu
	failed    int                // guarded by mu; runs failed so far, until results are set
	cacheHits int                // guarded by mu
	simulated int                // guarded by mu
	results   []*sweep.Result    // guarded by mu; set once, when the sweep returns
	summary   sweep.Summary      // guarded by mu; results' totals, set with them
	events    []Event            // guarded by mu
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the submitted grid JSON, verbatim.
func (j *Job) Spec() []byte { return j.spec }

// Runs returns the expanded run count.
func (j *Job) Runs() int { return len(j.jobs) }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	ts := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	failed := j.failed
	if j.results != nil {
		failed = j.summary.Failed
	}
	return Status{
		ID:            j.id,
		State:         j.state,
		Runs:          len(j.jobs),
		Done:          j.done,
		Failed:        failed,
		CacheHits:     j.cacheHits,
		Simulated:     j.simulated,
		AuditWarnings: j.summary.Warnings,
		Created:       ts(j.created),
		Started:       ts(j.started),
		Finished:      ts(j.finished),
	}
}

// Events returns the events recorded after cursor from (0 = from the
// beginning), the new cursor, whether the job has reached a terminal state,
// and a channel that is closed on the next change — the subscription
// primitive behind the streaming endpoint: emit the batch, and if not
// terminal, wait on the channel (or the client's context) and call again.
func (j *Job) Events(from int) (evs []Event, next int, terminal bool, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	evs = append(evs, j.events[from:]...)
	return evs, len(j.events), j.state.Terminal(), j.update
}

// ErrNotFinished is returned by Results while the job is still queued or
// running.
var ErrNotFinished = errors.New("job has not finished (results exist once the state is done, failed, or cancelled)")

// Results renders the job's outcome as the unified reno.metrics/v1
// envelope — for a cancelled job, the partial envelope covering whatever
// completed. With stable, wall-clock metrics are zeroed and the envelope is
// byte-identical to `renosweep -stable` output for the same grid (the
// envelope is stamped with tool "renosweep" for exactly that reason: the
// document is the same artifact the CLI would produce, diffable
// byte-for-byte against it).
func (j *Job) Results(stable bool) (*metrics.Report, error) {
	j.mu.Lock()
	sr := &sweep.Report{Grid: j.grid, Summary: j.summary, Results: j.results}
	j.mu.Unlock()
	if sr.Results == nil {
		return nil, ErrNotFinished
	}
	rep, err := sr.MetricsReport(sweep.EmitOptions{Deterministic: stable})
	if err != nil {
		return nil, err
	}
	rep.Tool = "renosweep"
	return rep, nil
}

// Publish appends an out-of-band event (a cluster lease event) to the
// job's stream. It is the dispatcher's seam into the NDJSON endpoint: run
// and state events stay owned by the scheduler, everything else arrives
// here.
func (j *Job) Publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(ev)
}

// publishLocked appends an event and wakes subscribers. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	j.events = append(j.events, ev)
	close(j.update)
	j.update = make(chan struct{})
}

// setStateLocked transitions the lifecycle state and records it as an
// event. Callers hold j.mu.
func (j *Job) setStateLocked(s State) {
	j.state = s
	j.publishLocked(Event{Type: "state", State: s})
}

// begin moves a queued job to running. It returns false when the job was
// cancelled while still queued (the scheduler then skips it).
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.cancel = cancel
	j.started = time.Now()
	j.setStateLocked(StateRunning)
	return true
}

// onRun records one completed run (the sweep pool's Progress hook).
func (j *Job) onRun(ri sweep.RunInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done = ri.Done
	r := ri.Result
	if r.Err != "" {
		j.failed++
	}
	if ri.Cached {
		j.cacheHits++
	} else {
		j.simulated++
	}
	j.publishLocked(Event{
		Type:  "run",
		Done:  ri.Done,
		Total: ri.Total,
		Bench: r.Bench,
		Tag:   r.Tag(),
		IPC:   r.IPC, ElimTotal: r.ElimTotal,
		RunHash: r.Hash, RunKey: ri.Key,
		Cached: ri.Cached,
		Err:    r.Err,
	})
}

// complete records the sweep's results and settles the terminal state:
// cancelled when cancellation (or shutdown) interrupted it, failed when any
// run failed or the architectural-equivalence audit warned, done otherwise.
func (j *Job) complete(results []*sweep.Result, interrupted bool) {
	sum := sweep.Summarize(results)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results = results
	j.summary = sum
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case interrupted || j.cancelled:
		j.setStateLocked(StateCancelled)
	case sum.Failed > 0 || sum.Warnings > 0:
		j.setStateLocked(StateFailed)
	default:
		j.setStateLocked(StateDone)
	}
}

// Dispatcher is the execution seam between the scheduler and the machinery
// that actually runs a job's expanded cells. The default (nil) dispatcher
// is the in-process sweep pool — sweep.RunContext on this machine. A
// cluster coordinator (internal/cluster) implements the same contract by
// sharding the cells across worker nodes.
//
// The contract mirrors sweep.RunContext exactly: one non-nil *sweep.Result
// per job, in job order; opts.Lookup consulted once per cell (serially)
// before anything executes; opts.Progress called serially, once per
// completed cell, with RunInfo.Index identifying the cell. Cancellation of
// ctx must settle every unfinished cell with an error result and return —
// never block past the context. publish lets the dispatcher append
// scheduling events (lease grants and expiries) to the job's NDJSON
// stream; it may be called from any goroutine.
type Dispatcher interface {
	Dispatch(ctx context.Context, id string, spec []byte, jobs []sweep.Job, opts sweep.Options, publish func(Event)) []*sweep.Result
}

// ClusterReporter is implemented by dispatchers that can describe cluster
// health (workers, leases, pending cells); the snapshot is served under
// "cluster" in /v1/healthz.
type ClusterReporter interface {
	ClusterStats() any
}

// Journaler is implemented by dispatchers that persist job intake (the
// cluster coordinator's write-ahead journal). When Config.Dispatcher
// implements it, the scheduler records every accepted job — Submit and
// Restore alike — before acknowledging it, so jobs still waiting for a
// runner survive a crash, and records the one terminal transition that
// never reaches Dispatch (a job cancelled while queued), so a restart
// cannot resurrect it. JournalSubmit answers ErrRecorded for an ID that is
// already on record (a recovered job Restore has not re-enqueued yet); any
// other error refuses the job (ErrJournal).
type Journaler interface {
	JournalSubmit(id string, spec []byte) error
	JournalSettled(id string)
}

// Config sizes a Service.
type Config struct {
	// Workers is the per-sweep pool width (0 = GOMAXPROCS). A grid's own
	// "workers" field, when set, takes precedence for that job.
	Workers int
	// QueueDepth bounds how many jobs may wait behind the running ones
	// before Submit returns ErrQueueFull (0 = 64).
	QueueDepth int
	// Runners is how many sweeps execute concurrently (0 = 1; each sweep
	// already parallelizes internally across its pool).
	Runners int
	// CacheEntries bounds the in-memory LRU result cache, under the one
	// bound convention shared with NewCache and the renoserve -cache
	// flag: 0 = DefaultCacheEntries, < 0 = unbounded. Evictions only cost
	// re-simulation (or, with StoreDir set, a disk read).
	CacheEntries int
	// StoreDir, when non-empty, backs the result cache with a persistent
	// content-addressed disk store rooted at that directory: results
	// survive restarts, the memory tier warm-loads from it on startup,
	// and concurrent daemons may share one directory. Empty = memory
	// only, the cache dies with the process.
	StoreDir string
	// Dispatcher, when non-nil, replaces the in-process sweep pool as the
	// executor of expanded cells (renoserve -role coordinator wires the
	// cluster coordinator here). Nil keeps today's behavior exactly:
	// sweep.RunContext on this machine.
	Dispatcher Dispatcher
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) runners() int {
	if c.Runners > 0 {
		return c.Runners
	}
	return 1
}

// Service is the sweep service: job store, scheduler, and result cache.
// Create one with New; it accepts jobs until Close.
type Service struct {
	cfg     Config
	cache   *Cache             // what runs read and write; over disk with StoreDir
	ctx     context.Context    // base context of every sweep
	stop    context.CancelFunc // cancels in-flight sweeps on forced drain
	started time.Time          // set once at construction; Uptime's epoch
	wg      sync.WaitGroup

	simulated atomic.Uint64 // pipeline runs actually executed, lifetime

	mu     sync.Mutex
	wake   *sync.Cond      // set once in newService, before any runner starts
	closed bool            // guarded by mu
	seq    int             // guarded by mu
	jobs   map[string]*Job // guarded by mu
	order  []string        // guarded by mu
	// pending is the FIFO of jobs waiting for a runner. A queued job that
	// is cancelled is removed immediately, so dead jobs never hold queue
	// capacity (Submit accounts against len(pending), exactly).
	// guarded by mu.
	pending []*Job
}

// Submission and lifecycle errors. HTTP maps these to 503; everything
// else Submit returns is a validation error (400).
var (
	ErrClosed    = errors.New("service is draining and no longer accepts jobs")
	ErrQueueFull = errors.New("job queue is full")
	// ErrJournal wraps the dispatcher's refusal to journal a job: the
	// job is not accepted because a crash would lose it.
	ErrJournal = errors.New("job could not be journaled")
	// ErrRecorded is a Journaler's answer for an ID already on record.
	// Restore takes it as success; Submit moves on to the next ID, so a
	// fresh job never takes the ID of a recovered one.
	ErrRecorded = errors.New("job id is already journaled")
)

// New starts a Service with cfg's scheduler bounds. The result cache is
// in-memory; with cfg.StoreDir set it is tiered over a persistent disk
// store (opened — or created — here, with previously persisted results
// warm-loaded into the memory tier). The only error paths are store ones:
// an unusable directory fails construction rather than silently running
// without persistence.
func New(cfg Config) (*Service, error) {
	return NewContext(context.Background(), cfg)
}

// NewContext is New with an explicit base context: every job context
// derives from ctx, so cancelling it cancels queued and in-flight work as
// if Close's drain budget had expired. Note that graceful drain
// (StopIntake followed by Close with a deadline) does not require a
// caller context — renoserve deliberately uses New and drives shutdown
// through those methods so that an interrupt stops intake without killing
// jobs that can still finish inside the budget.
func NewContext(ctx context.Context, cfg Config) (*Service, error) {
	s, err := newService(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.runners(); i++ {
		s.wg.Add(1)
		go s.runLoop()
	}
	return s, nil
}

// newService builds the service without starting its runners (tests drive
// the scheduler by hand through this seam).
func newService(parent context.Context, cfg Config) (*Service, error) {
	var disk *DiskStore
	if cfg.StoreDir != "" {
		var err error
		if disk, err = OpenDiskStore(cfg.StoreDir); err != nil {
			return nil, err
		}
	}
	ctx, stop := context.WithCancel(parent)
	s := &Service{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries, disk),
		ctx:     ctx,
		stop:    stop,
		started: time.Now(),
		jobs:    map[string]*Job{},
	}
	s.wake = sync.NewCond(&s.mu)
	return s, nil
}

// runLoop is one runner: it pops pending jobs in FIFO order and executes
// them until the service is closed and the queue is drained.
func (s *Service) runLoop() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.closed {
			s.wake.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.run(j)
		s.mu.Lock()
	}
}

// Cache returns the service's result cache.
func (s *Service) Cache() *Cache { return s.cache }

// Simulated returns the lifetime count of runs actually executed on the
// pipeline (cache hits excluded) — the counter the cache acceptance test
// pins at zero for a resubmitted grid.
func (s *Service) Simulated() uint64 { return s.simulated.Load() }

// Submit parses, validates, and expands a grid spec (the renosweep JSON
// schema) and enqueues it as a new job. Spec problems are reported with the
// same field-level errors as `renosweep -validate`, before the job is
// created — a job that enqueues will not fail on a spec error. ErrClosed,
// ErrQueueFull and ErrJournal report scheduler, not spec, conditions.
func (s *Service) Submit(spec []byte) (*Job, error) {
	grid, jobs, err := expand(spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.pending) >= s.cfg.queueDepth() {
		return nil, ErrQueueFull
	}
	for {
		j, err := s.enqueueLocked(fmt.Sprintf("sw-%06d", s.seq+1), spec, grid, jobs, false)
		if err != nil && !errors.Is(err, ErrRecorded) {
			return nil, err
		}
		s.seq++
		if err == nil {
			return j, nil
		}
	}
}

// Restore re-enqueues a job recovered from the dispatcher's journal under
// its original ID (the scheduler's "sw-NNNNNN" shape; anything else is
// rejected). The spec goes through the same parse/validate/expand path as
// Submit, the sequence counter advances past the restored number so new
// submissions never collide, and the job queues normally — its dispatch
// cache pass then resolves every cell whose result already reached the
// store, so recovery re-simulates nothing that survived. Restore bypasses
// the queue-depth bound: refusing recovery would strand journaled jobs.
func (s *Service) Restore(id string, spec []byte) (*Job, error) {
	n, err := parseJobID(id)
	if err != nil {
		return nil, err
	}
	grid, jobs, err := expand(spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.jobs[id]; ok {
		return nil, fmt.Errorf("restore: job %q already exists", id)
	}
	j, err := s.enqueueLocked(id, spec, grid, jobs, true)
	if err != nil {
		return nil, err
	}
	if n > s.seq {
		s.seq = n
	}
	return j, nil
}

// expand parses, validates and expands a grid spec: the intake Submit and
// Restore share.
func expand(spec []byte) (sweep.Grid, []sweep.Job, error) {
	grid, err := sweep.ParseGridJSON(spec)
	if err != nil {
		return sweep.Grid{}, nil, err
	}
	jobs, err := grid.Expand()
	return grid, jobs, err
}

// enqueueLocked journals a validated job and then queues it under id.
// Journaling comes first, before the caller learns the ID: an
// acknowledged job must survive a crash even if no runner ever picks it
// up, and a job the journal refuses leaves no trace. A restored job's ID
// is expected to be on record already; a fresh one's is not, and then
// ErrRecorded comes back unwrapped. Callers hold s.mu.
func (s *Service) enqueueLocked(id string, spec []byte, grid sweep.Grid, jobs []sweep.Job, restore bool) (*Job, error) {
	spec = append([]byte(nil), spec...)
	if jn, ok := s.cfg.Dispatcher.(Journaler); ok {
		switch err := jn.JournalSubmit(id, spec); {
		case errors.Is(err, ErrRecorded):
			if !restore {
				return nil, err
			}
		case err != nil:
			return nil, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	j := &Job{
		id:      id,
		spec:    spec,
		grid:    grid,
		jobs:    jobs,
		created: time.Now(),
		update:  make(chan struct{}),
		state:   StateQueued,
		// Initialized here, in the literal, rather than written after
		// construction: every mutation of guarded state once the Job is
		// reachable goes through j.mu (lockcheck pins this).
		events: []Event{{Type: "state", State: StateQueued}},
	}
	s.pending = append(s.pending, j)
	s.jobs[id] = j
	// s.order must stay ascending (JobsPage binary-searches it), and a
	// restored ID may interleave with jobs submitted before the restore.
	at := sort.SearchStrings(s.order, id)
	s.order = append(s.order, "")
	copy(s.order[at+1:], s.order[at:])
	s.order[at] = id
	s.wake.Signal()
	return j, nil
}

// parseJobID validates the scheduler's zero-padded "sw-NNNNNN" ID shape
// and returns its sequence number.
func parseJobID(id string) (int, error) {
	digits, ok := strings.CutPrefix(id, "sw-")
	if !ok || len(digits) < 6 {
		return 0, fmt.Errorf("restore: malformed job id %q", id)
	}
	n := 0
	for _, r := range digits {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("restore: malformed job id %q", id)
		}
		n = n*10 + int(r-'0')
	}
	if n <= 0 {
		return 0, fmt.Errorf("restore: malformed job id %q", id)
	}
	return n, nil
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// JobsPage returns up to limit jobs in submission order, starting after the
// job named by cursor ("" = from the beginning), plus the cursor for the
// next page ("" = no more jobs). Job IDs are zero-padded sequence numbers,
// so submission order is ID order and the cursor stays stable even when the
// job it names has since been removed: the page resumes at the first
// later-submitted job. A limit <= 0 returns an empty page.
func (s *Service) JobsPage(cursor string, limit int) (jobs []*Job, next string) {
	if limit <= 0 {
		return nil, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// s.order is ascending by construction (IDs are zero-padded sequence
	// numbers and appends happen in submission order).
	start := sort.SearchStrings(s.order, cursor)
	if start < len(s.order) && s.order[start] == cursor {
		start++
	}
	end := min(start+limit, len(s.order))
	jobs = make([]*Job, 0, end-start)
	for _, id := range s.order[start:end] {
		jobs = append(jobs, s.jobs[id])
	}
	if end < len(s.order) {
		next = s.order[end-1]
	}
	return jobs, next
}

// Cancel requests cancellation of a job: a queued job is settled as
// cancelled immediately (and its queue slot freed); a running job's sweep
// is interrupted (in-flight runs record partial statistics) and settles as
// cancelled when the pool returns. Cancelling a terminal job reports false.
func (s *Service) Cancel(id string) (bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		// Unqueue first, so a runner cannot pick the job up between the
		// state check below and its settlement.
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("unknown job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateQueued:
		j.cancelled = true
		j.finished = time.Now()
		j.results = []*sweep.Result{} // non-nil: an (empty) envelope exists
		j.setStateLocked(StateCancelled)
		// This settlement never reaches the dispatcher, so the journal
		// must hear about it here or a restart would resurrect the job.
		if jn, ok := s.cfg.Dispatcher.(Journaler); ok {
			jn.JournalSettled(id)
		}
		return true, nil
	case j.state == StateRunning:
		j.cancelled = true
		j.cancel()
		return true, nil
	default:
		return false, nil
	}
}

// Remove deletes a terminal job from the store, reclaiming its results and
// event history (the result cache is unaffected — resubmitting the job's
// grid still serves from cache). It reports false for a job that is still
// queued or running; cancel it first.
func (s *Service) Remove(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, fmt.Errorf("unknown job %q", id)
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		return false, nil
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true, nil
}

// run executes one job's sweep on the worker pool, with the cache seam
// wired in.
func (s *Service) run(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	if !j.begin(cancel) {
		return // cancelled while queued
	}
	opts := j.grid.Options()
	if opts.Workers <= 0 {
		opts.Workers = s.cfg.Workers // sweep resolves <= 0 to GOMAXPROCS
	}
	opts.Lookup = s.cache.Get
	opts.Progress = func(ri sweep.RunInfo) {
		if !ri.Cached {
			s.simulated.Add(1)
			s.cache.Put(ri.Key, ri.Result)
		}
		j.onRun(ri)
	}
	var results []*sweep.Result
	if d := s.cfg.Dispatcher; d != nil {
		results = d.Dispatch(ctx, j.id, j.Spec(), j.jobs, opts, j.Publish)
	} else {
		results = sweep.RunContext(ctx, j.jobs, opts)
	}
	j.complete(results, ctx.Err() != nil)
}

// Stats aggregates service health for the /v1/healthz endpoint. The
// cache_* fields describe the in-memory tier; Store is present only when
// the daemon runs with a persistent store behind it.
type Stats struct {
	Jobs           int    `json:"jobs"`
	Queued         int    `json:"queued"`
	Running        int    `json:"running"`
	CacheEntries   int    `json:"cache_entries"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	Simulated      uint64 `json:"simulated"`
	Draining       bool   `json:"draining,omitempty"`

	Store *StoreStats `json:"store,omitempty"`

	// Cluster is the dispatcher's health snapshot (workers, leases, pending
	// cells) when the service runs behind a ClusterReporter; nil standalone.
	Cluster any `json:"cluster,omitempty"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	st := Stats{Jobs: len(jobs), Queued: len(s.pending), Draining: s.closed}
	s.mu.Unlock()
	for _, j := range jobs {
		if j.Status().State == StateRunning {
			st.Running++
		}
	}
	st.CacheEntries = s.cache.Len()
	st.CacheHits, st.CacheMisses = s.cache.Stats()
	st.CacheEvictions = s.cache.Evictions()
	st.Simulated = s.simulated.Load()
	st.Store = s.cache.StoreStats()
	if cr, ok := s.cfg.Dispatcher.(ClusterReporter); ok {
		st.Cluster = cr.ClusterStats()
	}
	return st
}

// Uptime reports how long the service has been running; /v1/healthz serves
// it alongside the build identity so mixed-version clusters are diagnosable.
func (s *Service) Uptime() time.Duration {
	return time.Since(s.started)
}

// StopIntake stops the service accepting new jobs: Submit (and therefore
// POST /v1/sweeps) refuses with ErrClosed from the moment it returns, while
// queued and running jobs continue undisturbed and every read endpoint
// keeps serving. It is the first step of a graceful shutdown — refuse
// cleanly first, drain second, close the listener last — and is idempotent.
func (s *Service) StopIntake() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.wake.Broadcast()
	}
	s.mu.Unlock()
}

// Draining reports whether intake has stopped.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close drains the service: intake stops immediately (StopIntake), and
// Close waits for queued and running jobs to finish. When ctx expires
// first, in-flight sweeps are cancelled — their jobs settle as cancelled
// with partial results, exactly like a SIGINT'd renosweep — and Close still
// waits for the runners to exit before returning ctx's error. Close is
// idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.StopIntake()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop()
		<-done
		return ctx.Err()
	}
}
