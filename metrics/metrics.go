// Package metrics defines the project's unified, versioned result model:
// every measurement the simulator produces — a single renosim run, each run
// of a renosweep grid, a renobench throughput cell — is a Set of typed
// metrics with stable dotted names ("pipeline.cycles", "reno.elim.me",
// "cache.l1d.miss_rate"), serialized under the versioned Report envelope
// ("schema": "reno.metrics/v1").
//
// Three metric kinds exist:
//
//   - counter: a monotonic event count, carried as an exact uint64
//     ("pipeline.cycles", "reno.eliminated.me", "it.hits");
//   - gauge: a float measurement or level ("pipeline.ipc",
//     "reno.elim.me" — the Figure 8 percentage — "pipeline.iq_occ.avg");
//   - ratio: a dimensionless fraction in [0, 1] ("cache.l1d.miss_rate",
//     "bpred.accuracy").
//
// Encoding is canonical and loss-free: metrics serialize name-sorted,
// counters keep full uint64 precision, floats use Go's shortest
// round-tripping form, and Decode(Encode(r)) reproduces r exactly — the
// property CI's determinism gates and any downstream tooling depend on.
// Non-finite gauge and ratio values (NaN, ±Inf) have no JSON encoding and
// are dropped at insertion, so an undefined measurement (for example branch
// accuracy over zero branches) is an absent metric, never a broken
// document. See docs/metrics.md for the naming and versioning contract.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"reno/internal/jsonread"
)

// Kind classifies a metric's type.
type Kind uint8

const (
	// Counter is a monotonic event count with exact uint64 precision.
	Counter Kind = iota
	// Gauge is a float measurement or level (may exceed 1, may be negative).
	Gauge
	// Ratio is a dimensionless fraction in [0, 1].
	Ratio
)

// String returns the kind's canonical JSON name.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Ratio:
		return "ratio"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// kindByName is the inverse of Kind.String for decoding.
func kindByName(s string) (Kind, bool) {
	switch s {
	case "counter":
		return Counter, true
	case "gauge":
		return Gauge, true
	case "ratio":
		return Ratio, true
	}
	return 0, false
}

// Metric is one named measurement. Exactly one of Count (for counters) and
// Value (for gauges and ratios) is meaningful, selected by Kind.
type Metric struct {
	Name  string
	Kind  Kind
	Count uint64  // counter value; 0 otherwise
	Value float64 // gauge/ratio value; 0 for counters
}

// Float returns the metric's value as a float64 whatever its kind
// (counters convert; values above 2^53 lose precision — use Count for
// exact counter reads).
func (m Metric) Float() float64 {
	if m.Kind == Counter {
		return float64(m.Count)
	}
	return m.Value
}

// MarshalJSON encodes the metric with its kind-appropriate number form:
// counters as exact unsigned integers, gauges and ratios as Go's shortest
// round-tripping float rendering.
func (m Metric) MarshalJSON() ([]byte, error) {
	if err := checkMetric(m); err != nil {
		return nil, err
	}
	w := writer{}
	w.metric(m)
	return w.buf, nil
}

// UnmarshalJSON decodes a metric, parsing the value by declared kind so a
// counter round-trips through uint64 with no float truncation. The decoding
// is strict (readMetric).
func (m *Metric) UnmarshalJSON(data []byte) error {
	r := jsonread.New(data)
	got, name, err := readMetric(&r, nil)
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return err
	}
	got.Name = string(name)
	*m = got
	return nil
}

// readMetric reads one metric object, appending its name to names and
// returning the metric without it. The object must hold exactly a
// non-empty name, a known kind and a value of that kind: a counter an
// unsigned 64-bit integer, a gauge a finite float and a ratio one in
// [0, 1]. Keys match as jsonread matches them: case-exact, once each.
func readMetric(r *jsonread.Reader, names []byte) (Metric, []byte, error) {
	var kind, value []byte
	start := len(names)
	err := r.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "name":
			names, err = r.AppendString(names)
		case "kind":
			kind, err = r.Bytes()
		case "value":
			value, err = r.Number()
		default:
			return jsonread.UnknownField(key)
		}
		return err
	})
	if err != nil {
		return Metric{}, names, err
	}
	name := names[start:]
	if len(name) == 0 {
		return Metric{}, names, fmt.Errorf("metric without a name")
	}
	k, ok := kindByName(string(kind))
	if !ok {
		return Metric{}, names, fmt.Errorf("metric %q: unknown kind %q", name, kind)
	}
	if value == nil {
		return Metric{}, names, fmt.Errorf("metric %q: no value", name)
	}
	m := Metric{Kind: k}
	switch k {
	case Counter:
		if m.Count, err = strconv.ParseUint(string(value), 10, 64); err != nil {
			return Metric{}, names, fmt.Errorf("metric %q: counter value %s: %w", name, value, err)
		}
	default:
		v, err := strconv.ParseFloat(string(value), 64)
		if err != nil {
			return Metric{}, names, fmt.Errorf("metric %q: %s value %s: %w", name, kind, value, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Metric{}, names, fmt.Errorf("metric %q: non-finite %s value", name, kind)
		}
		if k == Ratio && (v < 0 || v > 1) {
			return Metric{}, names, fmt.Errorf("metric %q: ratio %g outside [0, 1]", name, v)
		}
		m.Value = v
	}
	return m, names, nil
}

// Set is a collection of uniquely named metrics. The zero value is ready to
// use. Adding a name that already exists replaces the previous metric, so
// builders can layer refinements without duplicate-checking.
type Set struct {
	// list is kept sorted by name, the canonical order: lookups
	// binary-search it, encoding walks it, and adding names in order
	// appends.
	list []Metric
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// metrics returns the sorted list (nil for a nil set).
func (s *Set) metrics() []Metric {
	if s == nil {
		return nil
	}
	return s.list
}

// search returns the index of name in the sorted list, or the index at
// which it would be inserted, and whether it is present.
func (s *Set) search(name string) (int, bool) {
	return slices.BinarySearchFunc(s.list, name, byName)
}

// byName orders a metric against a name.
func byName(m Metric, name string) int { return strings.Compare(m.Name, name) }

// add inserts or replaces a metric.
func (s *Set) add(m Metric) *Set {
	if n := len(s.list); n == 0 || s.list[n-1].Name < m.Name {
		s.list = append(s.list, m)
		return s
	}
	i, ok := s.search(m.Name)
	if ok {
		s.list[i] = m
	} else {
		s.list = slices.Insert(s.list, i, m)
	}
	return s
}

// Counter sets a counter metric. It returns the set for chaining.
func (s *Set) Counter(name string, v uint64) *Set {
	return s.add(Metric{Name: name, Kind: Counter, Count: v})
}

// Gauge sets a gauge metric, dropping non-finite values (a NaN measurement
// is an absent metric, not a serialization failure). It returns the set.
func (s *Set) Gauge(name string, v float64) *Set {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return s
	}
	return s.add(Metric{Name: name, Kind: Gauge, Value: v})
}

// Ratio sets a ratio metric, dropping non-finite values and clamping into
// [0, 1] (float error on an exact-boundary rate must not invalidate the
// document). It returns the set.
func (s *Set) Ratio(name string, v float64) *Set {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return s
	}
	return s.add(Metric{Name: name, Kind: Ratio, Value: math.Min(1, math.Max(0, v))})
}

// Len returns the number of metrics in the set.
func (s *Set) Len() int { return len(s.metrics()) }

// Lookup returns the named metric.
func (s *Set) Lookup(name string) (Metric, bool) {
	if s == nil {
		return Metric{}, false
	}
	if i, ok := s.search(name); ok {
		return s.list[i], true
	}
	return Metric{}, false
}

// Count returns the named counter's value (0, false when absent or not a
// counter).
func (s *Set) Count(name string) (uint64, bool) {
	m, ok := s.Lookup(name)
	if !ok || m.Kind != Counter {
		return 0, false
	}
	return m.Count, true
}

// Value returns the named metric's value as a float64, whatever its kind
// (0, false when absent).
func (s *Set) Value(name string) (float64, bool) {
	m, ok := s.Lookup(name)
	if !ok {
		return 0, false
	}
	return m.Float(), true
}

// All returns the metrics in canonical (name-sorted) order. The returned
// slice is a copy.
func (s *Set) All() []Metric {
	return append([]Metric(nil), s.metrics()...)
}

// Clone returns a copy of s that shares nothing with it (an empty set for
// nil). The copy has room for the host-side run telemetry (RunWallNS and
// RunSimInstsPerSec) that s lacks, which emission adds to a copy of each
// run's set, and is otherwise at its exact size.
func (s *Set) Clone() *Set {
	list := s.metrics()
	room := 0
	for _, name := range [...]string{RunWallNS, RunSimInstsPerSec} {
		if _, ok := slices.BinarySearchFunc(list, name, byName); !ok {
			room++
		}
	}
	c := make([]Metric, len(list), len(list)+room)
	copy(c, list)
	return &Set{list: c}
}

// Equal reports whether two sets carry exactly the same metrics (names,
// kinds, and values), regardless of insertion order.
func (s *Set) Equal(t *Set) bool {
	return slices.Equal(s.metrics(), t.metrics())
}

// MarshalJSON encodes the set as a name-sorted array of metrics — the
// canonical order that makes equal sets byte-identical.
func (s *Set) MarshalJSON() ([]byte, error) {
	if err := checkSet(s); err != nil {
		return nil, err
	}
	w := writer{}
	w.set(s)
	return w.buf, nil
}

// AppendIndent appends the set's name-sorted metric array to dst as
// json.MarshalIndent writes it with a two-space indent and a prefix of
// depth indents: the form the array takes as a value nested depth levels
// deep in a document indented two spaces per level. A metric with no JSON
// form is an error, as in MarshalJSON.
func (s *Set) AppendIndent(dst []byte, depth int) ([]byte, error) {
	if err := checkSet(s); err != nil {
		return dst, err
	}
	w := writer{buf: dst, indent: true, depth: depth}
	w.set(s)
	return w.buf, nil
}

// setScratch is what decoding a metric array builds before the set exists:
// the metrics without their names, and the names back to back with the
// offset each one ends at.
type setScratch struct {
	list  []Metric
	ends  []int
	names []byte
}

var setScratches = sync.Pool{New: func() any { return new(setScratch) }}

// UnmarshalJSON decodes a metric array in one pass, each metric as strictly
// as Metric.UnmarshalJSON, and rejects duplicate names (two values for one
// name has no coherent meaning); null decodes to an empty set. The set is
// allocated at its exact size, and all its names share one string.
func (s *Set) UnmarshalJSON(data []byte) error {
	r := jsonread.New(data)
	if r.Null() {
		*s = Set{}
		return r.End()
	}
	sc := setScratches.Get().(*setScratch)
	defer setScratches.Put(sc)
	sc.list, sc.ends, sc.names = sc.list[:0], sc.ends[:0], sc.names[:0]
	err := r.Array(func() error {
		m, names, err := readMetric(&r, sc.names)
		sc.list, sc.ends, sc.names = append(sc.list, m), append(sc.ends, len(names)), names
		return err
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return err
	}
	names := string(sc.names)
	list := make([]Metric, len(sc.list))
	start := 0
	for i, m := range sc.list {
		m.Name, start = names[start:sc.ends[i]], sc.ends[i]
		list[i] = m
	}
	// Canonical documents are already sorted, which the check sees in one
	// pass.
	order := func(a, b Metric) int { return strings.Compare(a.Name, b.Name) }
	if !slices.IsSortedFunc(list, order) {
		slices.SortFunc(list, order)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Name == list[i-1].Name {
			return fmt.Errorf("duplicate metric %q", list[i].Name)
		}
	}
	*s = Set{list: list}
	return nil
}
