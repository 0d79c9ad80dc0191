package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaV1 is the current envelope schema identifier. Any emitted document
// carries it in the "schema" field; Decode rejects documents from a
// different (including future) schema rather than misreading them.
const SchemaV1 = "reno.metrics/v1"

// Standard record label keys. Labels identify what was measured; attrs
// carry string-valued evidence about the measurement (hashes, stop reasons,
// errors). Both are optional per record.
const (
	LabelBench   = "bench"   // workload name
	LabelSuite   = "suite"   // workload suite ("SPECint", "MediaBench", "micro")
	LabelMachine = "machine" // machine spec tag ("4w", "4w:p128", inline-spec tag)
	LabelConfig  = "config"  // RENO configuration tag
	LabelSeed    = "seed"    // workload seed offset, decimal
	LabelBackend = "backend" // simulation backend ("functional"; absent = detailed)

	AttrArchHash   = "arch_hash"   // final architectural state hash, %016x
	AttrRunHash    = "run_hash"    // stable per-run result hash, %016x
	AttrStopReason = "stop_reason" // why the simulation ended (pipeline stop reason)
	AttrError      = "error"       // failure message; a record with this attr did not complete
)

// Record is one labeled measurement: a metric set plus the labels that
// identify what was measured.
type Record struct {
	// Labels identify the measured subject (bench, machine, config, ...).
	// Map encoding is key-sorted, so records marshal deterministically.
	Labels map[string]string `json:"labels,omitempty"`
	// Attrs are string-valued metadata about this measurement (hashes,
	// stop reasons, error text).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Metrics is the measurement itself.
	Metrics *Set `json:"metrics"`
	// enc is the record's indented bytes when it was built by EncodedRecord.
	enc []byte
}

// Label returns the named label ("" when absent).
func (r Record) Label(key string) string { return r.Labels[key] }

// Attr returns the named attr ("" when absent).
func (r Record) Attr(key string) string { return r.Attrs[key] }

// Report is the versioned envelope every tool emits: a schema identifier,
// the producing tool, free-form context, an optional whole-report summary
// set, and one record per measurement.
type Report struct {
	Schema string `json:"schema"`
	// Tool names the producer ("renosim", "renosweep", "renobench", or an
	// embedding program's own name).
	Tool string `json:"tool,omitempty"`
	// Meta is free-form string context (host facts, scale factors,
	// baseline labels). Deterministic emission modes must keep it free of
	// wall-clock and host-load values.
	Meta map[string]string `json:"meta,omitempty"`
	// Spec optionally embeds the input spec (e.g. the sweep grid) that
	// produced this report, verbatim, so a result document is
	// self-reproducing.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Summary aggregates over all records (sweep totals, bench totals).
	Summary *Set `json:"summary,omitempty"`
	// Records are the measurements, in producer order (sweeps: job order).
	Records []Record `json:"records"`
}

// NewReport returns an empty v1 envelope for the named tool.
func NewReport(tool string) *Report {
	return &Report{Schema: SchemaV1, Tool: tool}
}

// Add appends a record.
func (r *Report) Add(rec Record) { r.Records = append(r.Records, rec) }

// Validate checks the envelope invariants: a known schema and a metric set
// on every record.
func (r *Report) Validate() error {
	if r.Schema != SchemaV1 {
		return fmt.Errorf("metrics report: unsupported schema %q (this build understands %q)", r.Schema, SchemaV1)
	}
	for i, rec := range r.Records {
		if rec.Metrics == nil {
			return fmt.Errorf("metrics report: record %d has no metrics", i)
		}
	}
	return nil
}

// Encode writes the envelope as canonical indented JSON. Output is
// deterministic for deterministic content: maps encode key-sorted and
// metric sets name-sorted. The document is streamed to w in chunks of a few
// tens of kilobytes; every value is checked before the first byte is
// written, so an error other than w's own leaves w untouched.
func (r *Report) Encode(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if err := checkSet(r.Summary); err != nil {
		return fmt.Errorf("metrics report: summary: %w", err)
	}
	for i, rec := range r.Records {
		if rec.enc != nil {
			continue // checked by EncodedRecord
		}
		if err := checkSet(rec.Metrics); err != nil {
			return fmt.Errorf("metrics report: record %d: %w", i, err)
		}
	}
	spec, err := specJSON(r.Spec)
	if err != nil {
		return fmt.Errorf("metrics report: spec: %w", err)
	}
	if r.Records == nil {
		r.Records = []Record{}
	}
	// The buffer flushes once it passes flushAt, so the headroom above it
	// holds the record that crosses the mark without regrowing.
	out := writer{buf: make([]byte, 0, flushAt+flushAt/4), dst: w, indent: true}
	out.report(r, spec)
	out.buf = append(out.buf, '\n')
	out.flush(true)
	return out.err
}

// Decode parses and validates a v1 envelope. It rejects unknown schemas and
// unknown top-level fields, so consumers fail loudly on incompatible input
// instead of silently dropping what they do not understand.
func Decode(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("metrics report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
