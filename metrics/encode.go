package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// flushAt is the buffered size at which a streaming writer hands its bytes
// to the destination: a whole sweep envelope is megabytes, and writing it in
// chunks of this size keeps the writes few without holding the document.
const flushAt = 32 << 10

// writer is the one encoder of the reno.metrics/v1 forms: compact for the
// MarshalJSON methods, and indented two spaces per level for Report.Encode.
// Its bytes equal what encoding/json produces for the same values with HTML
// escaping on (json.Marshal, or an Encoder with SetIndent("", "  ")), which
// the oracle test in this package checks against mirror structs.
//
// Callers check values first (checkSet): the writer itself cannot fail,
// except on writing to dst, whose first error it keeps and then stops.
type writer struct {
	buf    []byte
	dst    io.Writer // nil: the whole output stays in buf
	indent bool
	depth  int
	keys   []string // scratch for sorting a map's keys
	err    error    // first error from dst
}

// flush hands the buffered bytes to dst once they reach flushAt, or
// whatever is buffered when final is set.
func (w *writer) flush(final bool) {
	if w.dst == nil || w.err != nil || (!final && len(w.buf) < flushAt) {
		return
	}
	_, w.err = w.dst.Write(w.buf)
	w.buf = w.buf[:0]
}

// indent is eight levels of indentation, which newline appends in one
// piece at the depths an envelope reaches (a metric's fields are five deep).
const indent = "                "

// newline starts a new line at the current depth (indented layout only).
func (w *writer) newline() {
	if !w.indent {
		return
	}
	w.buf = append(w.buf, '\n')
	for n := 2 * w.depth; n > 0; n -= len(indent) {
		w.buf = append(w.buf, indent[:min(n, len(indent))]...)
	}
}

// open starts an object or array.
func (w *writer) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
}

// close ends an object or array of n elements; an empty one stays on the
// line it opened on, as encoding/json's indenting writes it.
func (w *writer) close(c byte, n int) {
	w.depth--
	if n > 0 {
		w.newline()
	}
	w.buf = append(w.buf, c)
}

// elem starts the i-th element of the enclosing object or array.
func (w *writer) elem(i int) {
	if i > 0 {
		w.buf = append(w.buf, ',')
	}
	w.newline()
}

// field starts field *n of the enclosing object, keyed k, and counts it.
func (w *writer) field(n *int, k string) {
	w.elem(*n)
	w.str(k)
	w.colon()
	*n++
}

// plainField is field for a key known to need no escaping, written
// without scanning it.
func (w *writer) plainField(n *int, k string) {
	w.elem(*n)
	w.plain(k)
	w.colon()
	*n++
}

// colon separates a key from its value.
func (w *writer) colon() {
	if w.indent {
		w.buf = append(w.buf, ':', ' ')
	} else {
		w.buf = append(w.buf, ':')
	}
}

// plain writes s, which needs no escaping, as a JSON string.
func (w *writer) plain(s string) {
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// plainByte marks the bytes a JSON string carries as they are: printable
// ASCII other than the quote, the backslash and the HTML-escaped <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// str writes s as a JSON string. A string of plain bytes (plainByte) is
// written as it is; anything else goes through encoding/json, so control
// characters, U+2028, U+2029 and invalid UTF-8 come out exactly as
// json.Marshal writes them.
func (w *writer) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, b...)
			return
		}
	}
	w.plain(s)
}

// metric writes one metric object; its value must be finite (checkSet).
func (w *writer) metric(m Metric) {
	n := 0
	w.open('{')
	w.plainField(&n, "name")
	w.str(m.Name)
	w.plainField(&n, "kind")
	w.plain(m.Kind.String()) // "counter", "gauge", "ratio" or "kind(n)"
	w.plainField(&n, "value")
	if m.Kind == Counter {
		w.buf = strconv.AppendUint(w.buf, m.Count, 10)
	} else {
		w.buf = strconv.AppendFloat(w.buf, m.Value, 'g', -1, 64)
	}
	w.close('}', n)
}

// set writes a metric array in the set's (name-sorted) order; a nil set
// writes an empty array.
func (w *writer) set(s *Set) {
	list := s.metrics()
	w.open('[')
	for i, m := range list {
		w.elem(i)
		w.metric(m)
		w.flush(false)
	}
	w.close(']', len(list))
}

// stringMap writes a string map as an object with its keys sorted.
func (w *writer) stringMap(m map[string]string) {
	w.keys = w.keys[:0]
	for k := range m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	n := 0
	w.open('{')
	for _, k := range w.keys {
		w.field(&n, k)
		w.str(m[k])
	}
	w.close('}', n)
}

// record writes one envelope record: labels and attrs when non-empty (their
// omitempty tags), then the metric set. A pre-encoded record
// (EncodedRecord) writes the bytes this method wrote for it at recordDepth.
func (w *writer) record(r Record) {
	if r.enc != nil {
		w.buf = append(w.buf, r.enc...)
		return
	}
	n := 0
	w.open('{')
	if len(r.Labels) > 0 {
		w.field(&n, "labels")
		w.stringMap(r.Labels)
	}
	if len(r.Attrs) > 0 {
		w.field(&n, "attrs")
		w.stringMap(r.Attrs)
	}
	w.field(&n, "metrics")
	w.set(r.Metrics)
	w.close('}', n)
}

// recordDepth is the nesting depth Report.Encode writes each record at:
// inside the envelope object and its records array.
const recordDepth = 2

// recordWriters holds the scratch writers EncodedRecord renders records
// in, so a record's bytes cost one exactly sized allocation.
var recordWriters = sync.Pool{New: func() any { return &writer{indent: true} }}

// EncodedRecord returns rec carrying its own bytes as Report.Encode writes
// them, so every later Encode of a report holding it appends those bytes
// instead of rendering rec again. The bytes are fixed here: rec's labels,
// attrs and metric set must not change afterwards, since Encode would not
// see it. A metric with no JSON form is an error, as in Encode.
func EncodedRecord(rec Record) (Record, error) {
	if rec.Metrics == nil {
		return Record{}, fmt.Errorf("metrics record: no metrics")
	}
	if err := checkSet(rec.Metrics); err != nil {
		return Record{}, fmt.Errorf("metrics record: %w", err)
	}
	w := recordWriters.Get().(*writer)
	w.buf, w.depth = w.buf[:0], recordDepth
	rec.enc = nil
	w.record(rec)
	rec.enc = make([]byte, len(w.buf))
	copy(rec.enc, w.buf)
	recordWriters.Put(w)
	return rec, nil
}

// report writes the whole envelope, fields in Report's declaration order
// and optional ones only when set. spec is the embedded spec already in
// its final form (specJSON).
func (w *writer) report(r *Report, spec []byte) {
	n := 0
	w.open('{')
	w.field(&n, "schema")
	w.str(r.Schema)
	if r.Tool != "" {
		w.field(&n, "tool")
		w.str(r.Tool)
	}
	if len(r.Meta) > 0 {
		w.field(&n, "meta")
		w.stringMap(r.Meta)
	}
	if len(spec) > 0 {
		w.field(&n, "spec")
		w.buf = append(w.buf, spec...)
	}
	if r.Summary != nil {
		w.field(&n, "summary")
		w.set(r.Summary)
	}
	w.field(&n, "records")
	w.open('[')
	for i, rec := range r.Records {
		w.elem(i)
		w.record(rec)
		w.flush(false)
	}
	w.close(']', len(r.Records))
	w.close('}', n)
}

// specJSON renders an embedded spec as the indented envelope carries it:
// compacted and HTML-escaped the way json.Marshal treats a RawMessage, then
// indented as a value one level deep. Invalid JSON is an error.
func specJSON(spec json.RawMessage) ([]byte, error) {
	if len(spec) == 0 {
		return nil, nil
	}
	compact, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact, "  ", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// checkMetric reports a metric that has no JSON form: a gauge or ratio
// holding NaN or an infinity (only a Metric built by hand can).
func checkMetric(m Metric) error {
	if m.Kind != Counter && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
		return fmt.Errorf("metric %q: non-finite %s value has no JSON form", m.Name, m.Kind)
	}
	return nil
}

// checkSet reports the first metric of s that has no JSON form.
func checkSet(s *Set) error {
	for _, m := range s.metrics() {
		if err := checkMetric(m); err != nil {
			return err
		}
	}
	return nil
}
