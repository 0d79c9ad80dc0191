package sweep

import (
	"encoding/json"
	"fmt"
	"strconv"

	"reno/internal/jsonread"
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
// it and re-simulates), never into wrong bytes served as truth. It reads
// the record in one pass with no reflection (internal/jsonread), and it is
// stricter than encoding/json: a key whose case differs, a repeated key, a
// null and bytes after the record are all errors too.

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
// payload's canonical (compact, field-ordered, name-sorted) marshaling.
// The record carries those bytes indented, and Decode hashes them with the
// whitespace between tokens dropped (compactSum), so the record is
// whitespace-insensitive but any corruption that changes a single value —
// or writes one in another form — is caught before the payload is trusted.
type resultFile struct {
	Schema   string          `json:"schema"`
	Key      string          `json:"key"`
	Payload  json.RawMessage `json:"payload"`
	Checksum string          `json:"checksum"`
}

// checksumPrefix names the checksum's digest.
const checksumPrefix = "fnv1a64:"

// payloadChecksum digests the canonical payload bytes.
func payloadChecksum(payload []byte) string {
	h := newFieldHash()
	h.write(payload)
	return checksumPrefix + h.String()
}

// compactSum digests the JSON text b as json.Compact would write it: every
// byte but the whitespace between tokens. b must be valid JSON, so the
// only bytes up to ' ' outside a string are whitespace.
func compactSum(b []byte) fieldHash {
	h := newFieldHash()
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c <= ' ' {
			continue
		}
		h = (h ^ fieldHash(c)) * fnvPrime64
		if c != '"' {
			continue
		}
		// A string, hashed whole through its closing quote.
		for i++; ; i++ {
			c = b[i]
			h = (h ^ fieldHash(c)) * fnvPrime64
			if c == '\\' {
				i++
				h = (h ^ fieldHash(b[i])) * fnvPrime64
			} else if c == '"' {
				break
			}
		}
	}
	return h
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
// anything is returned: the schema and checksum must match, the record
// must parse with no unknown fields, and it must be coherent (a run hash,
// an architectural hash that parses, a metric set). Any failure is an
// error — the caller treats it as a cache miss, never as data.
func DecodeResult(data []byte) (key string, r *Result, err error) {
	rec, err := readRecord(data)
	if err != nil {
		return "", nil, fmt.Errorf("decode result: %w", err)
	}
	key, r = rec.key, rec.r
	if key == "" {
		return "", nil, fmt.Errorf("decode result: record has no run key")
	}
	// The canonical form is the compact one: if any value was altered — a
	// flipped digit, a truncated float, an injected metric — its digest no
	// longer matches the recorded checksum.
	var buf [len(checksumPrefix) + 16]byte
	if got := compactSum(rec.payload).appendHex(append(buf[:0], checksumPrefix...)); string(got) != string(rec.checksum) {
		return "", nil, fmt.Errorf("decode result %s: checksum mismatch (%s != %s)", key, got, rec.checksum)
	}
	if r.Hash == "" || r.Metrics.Len() == 0 {
		return "", nil, fmt.Errorf("decode result %s: incomplete record (run hash and metrics are required)", key)
	}
	if _, err := strconv.ParseUint(r.ArchHash, 16, 64); err != nil {
		return "", nil, fmt.Errorf("decode result %s: arch hash %q: %w", key, r.ArchHash, err)
	}
	return key, r, nil
}

// storedRecord is a result record as read, before DecodeResult checks it.
type storedRecord struct {
	key               string
	r                 *Result
	payload, checksum []byte // the payload's bytes as stored, the checksum's value
}

// readRecord reads a result record in one pass: the envelope, with the
// payload read in place, and nothing after it. Of the checks it makes only
// the syntax, the field names and types and the schema.
func readRecord(data []byte) (storedRecord, error) {
	rec := storedRecord{r: &Result{Metrics: new(metrics.Set)}}
	var schema []byte
	unsupported := func() error {
		return fmt.Errorf("unsupported schema %q (this build understands %q)", schema, ResultSchemaV1)
	}
	rd := jsonread.New(data)
	err := rd.Object(func(field []byte) error {
		var err error
		switch string(field) {
		case "schema":
			// Checked at once, so a record of another schema is reported
			// as that rather than as the fields this one lacks.
			if schema, err = rd.Bytes(); err == nil && string(schema) != ResultSchemaV1 {
				return unsupported()
			}
		case "key":
			rec.key, err = rd.String()
		case "payload":
			rec.payload, err = rd.Value(func() error { return readPayload(&rd, rec.r) })
			if err != nil {
				err = fmt.Errorf("payload: %w", err)
			}
		case "checksum":
			rec.checksum, err = rd.Bytes()
		default:
			return jsonread.UnknownField(field)
		}
		return err
	})
	if err == nil {
		err = rd.End()
	}
	if err == nil && string(schema) != ResultSchemaV1 {
		err = unsupported()
	}
	if err == nil && rec.payload == nil {
		err = fmt.Errorf("record has no payload")
	}
	return rec, err
}

// readPayload reads a record's payload object (resultPayload's fields)
// into r, whose Metrics must be an empty set.
func readPayload(rd *jsonread.Reader, r *Result) error {
	return rd.Object(func(field []byte) error {
		var err error
		switch string(field) {
		case "bench":
			r.Bench, err = rd.String()
		case "suite":
			r.Suite, err = rd.String()
		case "machine":
			r.Machine, err = rd.String()
		case "config":
			r.Config, err = rd.String()
		case "seed":
			r.Seed, err = rd.Int64()
		case "backend":
			r.Backend, err = rd.String()
		case "cycles":
			r.Cycles, err = rd.Uint64()
		case "insts":
			r.Insts, err = rd.Uint64()
		case "ipc":
			r.IPC, err = rd.Float64()
		case "elim_me":
			r.ElimME, err = rd.Float64()
		case "elim_cf":
			r.ElimCF, err = rd.Float64()
		case "elim_loads":
			r.ElimLoads, err = rd.Float64()
		case "elim_alu":
			r.ElimALU, err = rd.Float64()
		case "elim_total":
			r.ElimTotal, err = rd.Float64()
		case "branch_accuracy":
			r.BranchAccuracy, err = rd.Float64()
		case "arch_hash":
			r.ArchHash, err = rd.String()
		case "run_hash":
			r.Hash, err = rd.String()
		case "wall_ns":
			r.WallNS, err = rd.Int64()
		case "sim_insts_per_sec":
			r.SimInstsPerSec, err = rd.Float64()
		case "stop_reason":
			r.stopReason, err = rd.String()
		case "metrics":
			var set []byte
			if set, err = rd.Raw(); err == nil {
				err = r.Metrics.UnmarshalJSON(set)
			}
		default:
			return jsonread.UnknownField(field)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", field, err)
		}
		return nil
	})
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
