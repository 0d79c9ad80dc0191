package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

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
// The format is a small JSON envelope, indented two spaces per level:
//
//	{
//	  "schema":   "reno.result/v1",
//	  "key":      "<run key, %016x>",
//	  "payload":  { ...the run's fields... },
//	  "checksum": "fnv1a64:<%016x over the payload bytes>"
//	}
//
// The payload holds the stable scalar record in a fixed order — bench,
// suite, machine, config, seed, backend, cycles, insts, ipc, elim_me,
// elim_cf, elim_loads, elim_alu, elim_total, branch_accuracy, arch_hash,
// run_hash, wall_ns, sim_insts_per_sec, stop_reason — and last the run's
// full metric set, name-sorted (the set its envelope record carries).
// Suite, machine, seed, backend, wall_ns, sim_insts_per_sec and
// stop_reason are left out when empty; backend is empty for the detailed
// backend, so pre-backend records decode unchanged and detailed runs still
// encode to their pre-backend bytes. The checksum covers the payload's
// compact form: DecodeResult hashes the stored bytes with the whitespace
// between tokens dropped (compactSum), so the record is
// whitespace-insensitive, but any corruption that changes a single value —
// or writes one in another form — is caught before the payload is trusted.
//
// Neither direction uses reflection. EncodeResult writes the record in
// encoding/json's number and string forms, with the metric array through
// the metrics package's writer (Set.AppendIndent), and DecodeResult reads
// it in one pass (internal/jsonread).
//
// DecodeResult is strict by design — unknown schema or fields, a checksum
// mismatch, truncation, a key mismatch, or an incoherent payload all fail —
// so a corrupt store entry degrades into a cache miss (the store
// quarantines it and re-simulates), never into wrong bytes served as
// truth. It is stricter than encoding/json: a key whose case differs, a
// repeated key, a null and bytes after the record are all errors too.

// ResultSchemaV1 identifies the persistent result record format.
const ResultSchemaV1 = "reno.result/v1"

// checksumPrefix names the checksum's digest.
const checksumPrefix = "fnv1a64:"

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
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	rec, err := appendRecord((*buf)[:0], key, r)
	*buf = rec
	if err != nil {
		return nil, fmt.Errorf("encode result %s: %w", r.Key(), err)
	}
	return bytes.Clone(rec), nil
}

// recordBufs holds the scratch buffers EncodeResult writes records in, so
// a record costs one allocation: its exactly sized copy.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendRecord appends r's record under key to b, in the layout
// json.MarshalIndent with a two-space indent gives the envelope: fields in
// the order the format lists them, the payload's in a fixed order with
// the empty optional ones left out. Numbers and strings take
// encoding/json's forms (appendJSONFloat, appendJSONString) and the metric
// array the metrics package's own (Set.AppendIndent), so equal results
// produce equal bytes. The checksum is compactSum over the payload as
// written, the digest DecodeResult checks.
func appendRecord(b []byte, key string, r *Result) ([]byte, error) {
	floats := [...]struct {
		name string
		v    float64
	}{
		{"ipc", r.IPC}, {"elim_me", r.ElimME}, {"elim_cf", r.ElimCF}, {"elim_loads", r.ElimLoads},
		{"elim_alu", r.ElimALU}, {"elim_total", r.ElimTotal}, {"branch_accuracy", r.BranchAccuracy},
		{"sim_insts_per_sec", r.SimInstsPerSec},
	}
	for _, f := range floats {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return b, fmt.Errorf("%s: unsupported value %v", f.name, f.v)
		}
	}
	b = append(b, "{\n  \"schema\": \""+ResultSchemaV1+"\",\n  \"key\": "...)
	b = appendJSONString(b, key)
	b = append(b, ",\n  \"payload\": "...)
	payload := len(b)
	b = appendJSONString(append(b, "{\n    \"bench\": "...), r.Bench)
	if r.Suite != "" {
		b = appendJSONString(payloadField(b, "suite"), r.Suite)
	}
	if r.Machine != "" {
		b = appendJSONString(payloadField(b, "machine"), r.Machine)
	}
	b = appendJSONString(payloadField(b, "config"), r.Config)
	if r.Seed != 0 {
		b = strconv.AppendInt(payloadField(b, "seed"), r.Seed, 10)
	}
	if r.Backend != "" {
		b = appendJSONString(payloadField(b, "backend"), r.Backend)
	}
	b = strconv.AppendUint(payloadField(b, "cycles"), r.Cycles, 10)
	b = strconv.AppendUint(payloadField(b, "insts"), r.Insts, 10)
	for _, f := range floats[:len(floats)-1] { // sim_insts_per_sec is optional and comes later
		b = appendJSONFloat(payloadField(b, f.name), f.v)
	}
	b = appendJSONString(payloadField(b, "arch_hash"), r.ArchHash)
	b = appendJSONString(payloadField(b, "run_hash"), r.Hash)
	if r.WallNS != 0 {
		b = strconv.AppendInt(payloadField(b, "wall_ns"), r.WallNS, 10)
	}
	if r.SimInstsPerSec != 0 {
		b = appendJSONFloat(payloadField(b, "sim_insts_per_sec"), r.SimInstsPerSec)
	}
	if r.stopReason != "" {
		b = appendJSONString(payloadField(b, "stop_reason"), r.stopReason)
	}
	b, err := r.Metrics.AppendIndent(payloadField(b, "metrics"), 2)
	if err != nil {
		return b, fmt.Errorf("metrics: %w", err)
	}
	b = append(b, "\n  }"...)
	sum := compactSum(b[payload:])
	b = sum.appendHex(append(b, ",\n  \"checksum\": \""+checksumPrefix...))
	return append(b, "\"\n}\n"...), nil
}

// payloadField starts a payload field after the first: the comma, the
// payload's indentation and the quoted name.
func payloadField(b []byte, name string) []byte {
	b = append(b, ",\n    \""...)
	b = append(b, name...)
	return append(b, "\": "...)
}

// appendJSONString appends s as a JSON string the way encoding/json writes
// it, HTML characters escaped: a string of printable ASCII that needs no
// escape as it is, any other through json.Marshal, so control characters,
// U+2028, U+2029 and invalid UTF-8 come out exactly as it writes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends the finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form only below 1e-6
// or from 1e21 up, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	return b
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

// readPayload reads a record's payload object (the fields the format lists)
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
