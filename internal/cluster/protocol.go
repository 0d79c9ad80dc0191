package cluster

import "encoding/json"

// Wire types for the coordinator/worker protocol. All four endpoints live
// under /v1/cluster/ on the coordinator; workers are pure HTTP clients:
//
//	POST /v1/cluster/lease      LeaseRequest  → LeaseGrant (204 when idle)
//	POST /v1/cluster/heartbeat  Heartbeat     → 204 (410 when gone)
//	POST /v1/cluster/results    UploadRequest → UploadReply
//	GET  /v1/cluster/state      → Stats
//
// The protocol ships no configuration structs: a grant carries the sweep's
// verbatim grid spec plus cell indices, and both sides re-expand the grid
// deterministically. Results travel as canonical reno.result/v1 records —
// the same bytes the persistent store holds — verified on receipt against
// the cell's expected run key.

// LeaseRequest asks the coordinator for a batch of cells to execute.
type LeaseRequest struct {
	// Worker names the requesting node; it keys liveness and per-worker
	// counters in /v1/cluster/state.
	Worker string `json:"worker"`
	// Capacity is the worker's local pool width, a sizing hint for the
	// batch partitioner. Zero means unknown.
	Capacity int `json:"capacity,omitempty"`
}

// LeaseGrant hands a batch of cells to a worker. Ownership lasts until the
// TTL lapses without a heartbeat; after that the cells requeue and the
// grant's uploads become best-effort (still accepted, deduped by cell).
type LeaseGrant struct {
	// Lease is the grant's identity, quoted in heartbeats and uploads.
	Lease string `json:"lease"`
	// Sweep is the coordinator-side job the cells belong to.
	Sweep string `json:"sweep"`
	// Spec is the sweep's grid spec, verbatim as submitted. The worker
	// re-parses and re-expands it; expansion is deterministic, so Cells
	// index the same jobs on both sides.
	Spec json.RawMessage `json:"spec"`
	// Cells are indices into the expanded grid's job list.
	Cells []int `json:"cells"`
	// TTLMillis is the lease TTL; workers heartbeat at a fraction of it.
	TTLMillis int64 `json:"ttl_ms"`
}

// Heartbeat renews a lease. The coordinator answers 204 No Content on
// renewal and 410 Gone when the lease no longer exists (expired and
// requeued, fully completed, or the sweep finished/cancelled) — the
// worker's cue to abandon the batch.
type Heartbeat struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// CellUpload is one finished cell: either a canonical result record or a
// failure message, never both.
type CellUpload struct {
	// Cell is the index into the sweep's expanded job list.
	Cell int `json:"cell"`
	// Key is the cell's content-addressed run key; the coordinator
	// rejects records whose key does not match its own expansion.
	Key string `json:"key"`
	// Record is the encoded reno.result/v1 record for a completed cell.
	Record json.RawMessage `json:"record,omitempty"`
	// Err reports a failed cell; the coordinator requeues it until the
	// attempt budget is spent.
	Err string `json:"error,omitempty"`
}

// UploadRequest streams finished cells back. Uploads quote the lease for
// bookkeeping but are honored even when it has expired — work already
// done is never discarded; duplicates are dropped per cell.
type UploadRequest struct {
	Worker  string       `json:"worker"`
	Lease   string       `json:"lease"`
	Sweep   string       `json:"sweep"`
	Results []CellUpload `json:"results"`
}

// UploadReply accounts for every entry in the request.
type UploadReply struct {
	// Accepted counts records that settled their cell.
	Accepted int `json:"accepted"`
	// Duplicate counts cells another upload settled first.
	Duplicate int `json:"duplicate,omitempty"`
	// Requeued counts failed cells put back in the pending queue.
	Requeued int `json:"requeued,omitempty"`
	// Stale means the sweep is no longer running here (finished,
	// cancelled, or never existed); the worker should drop the batch.
	Stale bool `json:"stale,omitempty"`
}

// WorkerStatus is one worker's row in Stats, keyed by the name it quotes
// in lease requests.
type WorkerStatus struct {
	ID string `json:"id"`
	// LastSeenMillis is the time since the worker's last request.
	LastSeenMillis int64  `json:"last_seen_ms"`
	Leases         uint64 `json:"leases"`
	CellsDone      uint64 `json:"cells_done"`
}

// Stats is the coordinator's cluster view, served on /v1/cluster/state and
// embedded in the coordinator's /v1/healthz body.
type Stats struct {
	Workers      []WorkerStatus `json:"workers,omitempty"`
	ActiveSweeps int            `json:"active_sweeps"`
	PendingCells int            `json:"pending_cells"`
	LeasedCells  int            `json:"leased_cells"`
	ActiveLeases int            `json:"active_leases"`
	// Lifetime lease-lifecycle counters.
	LeasesGranted    uint64 `json:"leases_granted"`
	LeasesRenewed    uint64 `json:"leases_renewed"`
	LeasesExpired    uint64 `json:"leases_expired"`
	DuplicateResults uint64 `json:"duplicate_results"`
	// Journal reports write-ahead-journal state when durability is
	// configured (renoserve -journal); nil otherwise.
	Journal *JournalStats `json:"journal,omitempty"`
}

// JournalStats is the write-ahead journal's health row inside Stats: where
// it lives, how much it has logged since open, how many in-flight sweeps
// the last replay recovered, and whether appends are failing (a non-zero
// AppendErrors means durability is degraded — scheduling continues, but a
// crash would lose whatever failed to land).
type JournalStats struct {
	Path            string `json:"path"`
	Records         uint64 `json:"records"`
	Bytes           int64  `json:"bytes"`
	RecoveredSweeps int    `json:"recovered_sweeps"`
	AppendErrors    uint64 `json:"append_errors,omitempty"`
}
