package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"reno/metrics"
)

// This file is the persistent result codec: a canonical, self-verifying,
// reno.metrics-compatible serialization of one completed Result, addressed
// by its run key (Job.Key). It is the on-disk format of the renoserve
// result store (internal/service): because simulation is deterministic and
// the run key hashes every outcome-determining input, a decoded record is
// observationally equivalent to re-running the cell — the decoded Result
// emits a byte-identical envelope record, participates in the
// architectural-equivalence audit through its recorded hash, and re-encodes
// to the identical bytes (pinned by TestResultCodecRoundTrip).
//
// The format is a small JSON envelope:
//
//	{
//	  "schema":   "reno.result/v1",
//	  "key":      "<run key, %016x>",
//	  "payload":  { ...resultPayload... },
//	  "checksum": "fnv1a64:<%016x over the payload bytes>"
//	}
//
// Decode is strict by design — unknown schema or fields, a checksum
// mismatch, truncation, a key mismatch, or an incoherent payload all fail —
// so a corrupt store entry degrades into a cache miss (the store quarantines
// it and re-simulates), never into wrong bytes served as truth.

// ResultSchemaV1 identifies the persistent result record format.
const ResultSchemaV1 = "reno.result/v1"

// resultPayload is the canonical serialized form of a completed Result: the
// stable scalar record plus the full pipeline metric set (the same set the
// run's envelope record carries, name-sorted) and the stop reason. Field
// order is fixed and all encodings are deterministic, so equal results
// produce equal bytes.
type resultPayload struct {
	Bench   string `json:"bench"`
	Suite   string `json:"suite,omitempty"`
	Machine string `json:"machine,omitempty"`
	Config  string `json:"config"`
	Seed    int64  `json:"seed,omitempty"`
	// Backend is the normalized backend name ("" = detailed). Omitted when
	// empty, so pre-backend store records decode unchanged — and detailed
	// runs still encode to their pre-backend bytes.
	Backend string `json:"backend,omitempty"`

	Cycles uint64  `json:"cycles"`
	Insts  uint64  `json:"insts"`
	IPC    float64 `json:"ipc"`

	ElimME    float64 `json:"elim_me"`
	ElimCF    float64 `json:"elim_cf"`
	ElimLoads float64 `json:"elim_loads"`
	ElimALU   float64 `json:"elim_alu"`
	ElimTotal float64 `json:"elim_total"`

	BranchAccuracy float64 `json:"branch_accuracy"`

	ArchHash string `json:"arch_hash"`
	Hash     string `json:"run_hash"`

	WallNS         int64   `json:"wall_ns,omitempty"`
	SimInstsPerSec float64 `json:"sim_insts_per_sec,omitempty"`

	StopReason string       `json:"stop_reason,omitempty"`
	Metrics    *metrics.Set `json:"metrics"`
}

// resultFile is the envelope around the payload. Checksum covers the
// payload's canonical (compact, field-ordered, name-sorted) marshaling —
// Decode re-derives it from the parsed payload rather than hashing the raw
// bytes, so the record is whitespace-insensitive but any corruption that
// changes a single value is caught before the payload is trusted.
type resultFile struct {
	Schema   string          `json:"schema"`
	Key      string          `json:"key"`
	Payload  json.RawMessage `json:"payload"`
	Checksum string          `json:"checksum"`
}

// payloadChecksum digests the canonical payload bytes.
func payloadChecksum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("fnv1a64:%016x", h.Sum64())
}

// EncodeResult serializes a completed, successful result under its run key.
// Only complete results are encodable: failures, timeouts, and partials
// carry wall-clock-dependent state that must never be replayed as truth, so
// they are rejected here exactly as the in-memory cache rejects them.
func EncodeResult(key string, r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("encode result: nil result")
	}
	if r.Err != "" {
		return nil, fmt.Errorf("encode result %s: failed runs are not persistable (%s)", r.Key(), r.Err)
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("encode result %s: partial result has no pipeline metrics", r.Key())
	}
	payload, err := json.Marshal(resultPayload{
		Bench: r.Bench, Suite: r.Suite, Machine: r.Machine, Config: r.Config, Seed: r.Seed,
		Backend: r.Backend,
		Cycles:  r.Cycles, Insts: r.Insts, IPC: r.IPC,
		ElimME: r.ElimME, ElimCF: r.ElimCF, ElimLoads: r.ElimLoads, ElimALU: r.ElimALU, ElimTotal: r.ElimTotal,
		BranchAccuracy: r.BranchAccuracy,
		ArchHash:       r.ArchHash, Hash: r.Hash,
		WallNS: r.WallNS, SimInstsPerSec: r.SimInstsPerSec,
		StopReason: r.stopReason, Metrics: r.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("encode result %s: %w", r.Key(), err)
	}
	out, err := json.MarshalIndent(resultFile{
		Schema:   ResultSchemaV1,
		Key:      key,
		Payload:  payload,
		Checksum: payloadChecksum(payload),
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode result %s: %w", r.Key(), err)
	}
	return append(out, '\n'), nil
}

// DecodeResult parses a persistent result record back into a Result and the
// run key it was stored under. Every integrity property is checked before
// anything is returned: the schema and checksum must match, the payload must
// parse with no unknown fields, and the record must be coherent (a run
// hash, an architectural hash that parses, a metric set). Any failure is an
// error — the caller treats it as a cache miss, never as data.
func DecodeResult(data []byte) (key string, r *Result, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f resultFile
	if err := dec.Decode(&f); err != nil {
		return "", nil, fmt.Errorf("decode result: %w", err)
	}
	if f.Schema != ResultSchemaV1 {
		return "", nil, fmt.Errorf("decode result: unsupported schema %q (this build understands %q)", f.Schema, ResultSchemaV1)
	}
	if f.Key == "" {
		return "", nil, fmt.Errorf("decode result: record has no run key")
	}
	pdec := json.NewDecoder(bytes.NewReader(f.Payload))
	pdec.DisallowUnknownFields()
	var p resultPayload
	if err := pdec.Decode(&p); err != nil {
		return "", nil, fmt.Errorf("decode result %s: payload: %w", f.Key, err)
	}
	// Re-derive the canonical payload bytes from what was parsed: if any
	// value was altered — a flipped digit, a truncated float, an injected
	// metric — the canonical form no longer matches the recorded checksum.
	canonical, err := json.Marshal(p)
	if err != nil {
		return "", nil, fmt.Errorf("decode result %s: %w", f.Key, err)
	}
	if got := payloadChecksum(canonical); got != f.Checksum {
		return "", nil, fmt.Errorf("decode result %s: checksum mismatch (%s != %s)", f.Key, got, f.Checksum)
	}
	if p.Hash == "" || p.Metrics.Len() == 0 {
		return "", nil, fmt.Errorf("decode result %s: incomplete record (run hash and metrics are required)", f.Key)
	}
	if _, err := strconv.ParseUint(p.ArchHash, 16, 64); err != nil {
		return "", nil, fmt.Errorf("decode result %s: arch hash %q: %w", f.Key, p.ArchHash, err)
	}
	res := &Result{
		Bench: p.Bench, Suite: p.Suite, Machine: p.Machine, Config: p.Config, Seed: p.Seed,
		Backend: p.Backend,
		Cycles:  p.Cycles, Insts: p.Insts, IPC: p.IPC,
		ElimME: p.ElimME, ElimCF: p.ElimCF, ElimLoads: p.ElimLoads, ElimALU: p.ElimALU, ElimTotal: p.ElimTotal,
		BranchAccuracy: p.BranchAccuracy,
		ArchHash:       p.ArchHash, Hash: p.Hash,
		WallNS: p.WallNS, SimInstsPerSec: p.SimInstsPerSec,
		Metrics:    p.Metrics,
		stopReason: p.StopReason,
	}
	return f.Key, res, nil
}

// Complete reports whether the result is a finished, successful run — the
// only kind a result cache may serve in place of re-simulating.
func (r *Result) Complete() bool {
	return r != nil && r.Err == "" && r.Metrics != nil
}

// Clone returns a copy of r that its holder may mutate freely: mutating
// the copy's fields never changes the original. A clone shares two
// read-only parts with r and with r's other clones. One is the metric set,
// which nothing writes after the run (emission copies it before it adds the
// wall-clock metrics). The other, for a complete result, is a memo of its
// stable envelope record, which the first deterministic emission of any of
// them renders and later ones write as it is (recordMemo); a clone whose
// fields have changed since no longer uses it. So a result cache that
// clones on both insert and lookup serves concurrent jobs without copying a
// set or rendering a record on every hit.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	c := *r
	if c.Complete() && (c.memo == nil || !c.memo.matches(&c)) {
		c.memo = newRecordMemo(&c)
	}
	return &c
}
