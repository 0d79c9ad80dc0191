// Package cluster splits sweep execution across nodes: a coordinator that
// partitions a submitted grid's cells into leased batches, and thin workers
// that pull batches over HTTP, run them through the existing sweep pool and
// backends, and stream per-cell results back.
//
// The design leans entirely on the determinism the rest of the repository
// already guarantees. A grid spec expands to the same cell list on every
// node (sweep.Grid.Expand is deterministic), every cell is content-addressed
// by its stable run key (sweep.Job.Key), and a completed cell serializes to
// the canonical self-verifying reno.result/v1 record (sweep.EncodeResult).
// The wire protocol therefore never ships configuration structs — a lease
// names the sweep's grid spec plus a set of cell indices, and a result
// upload is the same record the persistent store holds. The coordinator
// assembles decoded records into the job-ordered result slice, so the final
// envelope is byte-identical to a standalone `renosweep -stable` run of the
// same grid.
//
// Fault tolerance is lease-based, and lease expiry is the only way a cell
// changes hands. A worker owns its batch only while it heartbeats: when the
// lease TTL lapses, the next lease, heartbeat or state request reaps it,
// the coordinator requeues the incomplete cells, and any worker —
// including a brand-new one — picks them up. A reaped worker may still
// finish a cell its successor also runs; the coordinator dedups by cell
// (first complete upload wins, verified against the cell's run key), so a
// kill -9'd worker costs wall-clock, never correctness — and never a
// double-counted result.
//
// Coordinator state is durable when a write-ahead Journal is configured:
// job submissions and completions are appended as NDJSON records, and a
// coordinator restarted on the same journal replays it, restores the
// in-flight sweeps, and resumes them — re-simulating nothing whose result
// already reached the shared store. One live coordinator owns a journal;
// each worker talks to exactly one coordinator. See journal.go/recover.go
// and the "Durability" section of docs/cluster.md; the chaos proof lives
// in internal/cluster/chaostest.
//
// Wall-clock enters this package only through the injected clock seam
// (lease deadlines, worker liveness); every emitted result byte is a pure
// function of the grid, which is what the determinism marker below pins
// (journal records deliberately carry no timestamps). The HTTP surface is
// Coordinator.Handler (mounted under /v1/cluster/ by renoserve -role
// coordinator) and Worker.Run's client side; see docs/cluster.md for the
// protocol and failure model.
//
//reno:deterministic
package cluster
