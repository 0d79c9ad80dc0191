package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The oracle: mirror structs of the envelope, encoded by encoding/json
// alone. Their bytes are what the documented format says Report.Encode and
// the MarshalJSON methods produce, so the package's own writer is checked
// against a reference that shares none of its code.

type oracleMetric struct {
	Name  string          `json:"name"`
	Kind  string          `json:"kind"`
	Value json.RawMessage `json:"value"`
}

type oracleRecord struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Metrics []oracleMetric    `json:"metrics"`
}

type oracleReport struct {
	Schema  string            `json:"schema"`
	Tool    string            `json:"tool,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
	Spec    json.RawMessage   `json:"spec,omitempty"`
	Summary *[]oracleMetric   `json:"summary,omitempty"`
	Records []oracleRecord    `json:"records"`
}

// oracleMetrics renders metrics in name order, with the documented number
// forms: counters as exact unsigned integers, everything else as Go's
// shortest round-tripping float.
func oracleMetrics(ms []Metric) []oracleMetric {
	ms = append([]Metric(nil), ms...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	out := []oracleMetric{}
	for _, m := range ms {
		v := strconv.FormatFloat(m.Value, 'g', -1, 64)
		if m.Kind == Counter {
			v = strconv.FormatUint(m.Count, 10)
		}
		out = append(out, oracleMetric{Name: m.Name, Kind: m.Kind.String(), Value: json.RawMessage(v)})
	}
	return out
}

// genReport is a random report together with its oracle mirror.
type genReport struct {
	rep    *Report
	oracle oracleReport
	sets   []*Set           // every set in rep, summary first when present
	lists  [][]oracleMetric // the oracle's rendering of each set
}

// genString returns a short string drawn from plain ASCII, characters
// encoding/json escapes (HTML, quote, backslash, control), multi-byte text,
// the line and paragraph separators, and invalid UTF-8.
func genString(rng *rand.Rand) string {
	pieces := []string{"a", "z", ".", "_", "7", " ", "pipeline.", "<", ">", "&", "\"", "\\",
		"\x00", "\x01", "\n", "\t", "\x1f", "\x7f", "é", "✓", "日本", " ", " ", "\xff", "\xc3", "�"}
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// genFloat returns a finite value, favoring forms that render oddly.
func genFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 1e21
	case 2:
		return 1e-7
	case 3:
		return math.MaxFloat64
	case 4:
		return math.SmallestNonzeroFloat64
	case 5:
		return float64(rng.Int63())
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
}

// genSet fills a set with n uniquely named metrics in random order.
func genSet(rng *rand.Rand, n int) (*Set, []oracleMetric) {
	s := NewSet()
	var ms []Metric
	seen := map[string]bool{}
	for len(ms) < n {
		name := genString(rng) + strconv.Itoa(rng.Intn(1000))
		if seen[name] {
			continue
		}
		seen[name] = true
		var m Metric
		switch rng.Intn(3) {
		case 0:
			m = Metric{Name: name, Kind: Counter, Count: rng.Uint64() >> uint(rng.Intn(64))}
			s.Counter(name, m.Count)
		case 1:
			m = Metric{Name: name, Kind: Gauge, Value: genFloat(rng)}
			s.Gauge(name, m.Value)
		default:
			m = Metric{Name: name, Kind: Ratio, Value: rng.Float64()}
			s.Ratio(name, m.Value)
		}
		ms = append(ms, m)
	}
	return s, oracleMetrics(ms)
}

// genMap returns a random string map, nil or empty some of the time.
func genMap(rng *rand.Rand) map[string]string {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := map[string]string{}
	for n := rng.Intn(6); n > 0; n-- {
		m[genString(rng)] = genString(rng)
	}
	return m
}

// genSpec returns a random JSON spec with arbitrary whitespace, or none.
func genSpec(rng *rand.Rand) json.RawMessage {
	if rng.Intn(3) == 0 {
		return nil
	}
	v := map[string]any{
		genString(rng): []any{genString(rng), rng.Intn(100), []any{}, map[string]any{}},
		"nested":       map[string]any{genString(rng): genFloat(rng), "t": true, "n": nil},
	}
	b, err := json.MarshalIndent(v, strings.Repeat(" ", rng.Intn(3)), strings.Repeat("\t", rng.Intn(3)))
	if err != nil {
		panic(err)
	}
	return append([]byte(" \n"), b...)
}

func genReportFrom(rng *rand.Rand) genReport {
	g := genReport{rep: NewReport(genString(rng))}
	g.oracle = oracleReport{Schema: SchemaV1, Tool: g.rep.Tool}
	g.rep.Meta = genMap(rng)
	g.oracle.Meta = g.rep.Meta
	g.rep.Spec = genSpec(rng)
	g.oracle.Spec = g.rep.Spec
	if rng.Intn(3) > 0 {
		s, list := genSet(rng, rng.Intn(4))
		g.rep.Summary, g.oracle.Summary = s, &list
		g.sets, g.lists = append(g.sets, s), append(g.lists, list)
	}
	g.oracle.Records = []oracleRecord{}
	for n := rng.Intn(5); n > 0; n-- {
		s, list := genSet(rng, rng.Intn(8))
		rec := Record{Labels: genMap(rng), Attrs: genMap(rng), Metrics: s}
		g.rep.Add(rec)
		g.oracle.Records = append(g.oracle.Records, oracleRecord{Labels: rec.Labels, Attrs: rec.Attrs, Metrics: list})
		g.sets, g.lists = append(g.sets, s), append(g.lists, list)
	}
	return g
}

// checkAgainstOracle encodes g both ways, indented and compact, and each
// of its sets compact and indented (Set.AppendIndent), and reports any
// difference.
func checkAgainstOracle(t *testing.T, g genReport) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g.oracle); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := g.rep.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}

	wantCompact, err := json.Marshal(g.oracle)
	if err != nil {
		t.Fatal(err)
	}
	gotCompact, err := json.Marshal(g.rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCompact, wantCompact) {
		t.Fatalf("compact report differs from encoding/json:\n got %q\nwant %q", gotCompact, wantCompact)
	}
	for i, s := range g.sets {
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(g.lists[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Set.MarshalJSON differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		depth := i % 4
		got, err = s.AppendIndent([]byte("x"), depth)
		if err != nil {
			t.Fatal(err)
		}
		want, err = json.MarshalIndent(g.lists[i], strings.Repeat("  ", depth), "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("Set.AppendIndent at depth %d differs from encoding/json:\n got %q\nwant %q", depth, got[1:], want)
		}
	}
}

// TestEncodeMatchesOracle checks the writer against encoding/json on
// random reports, in the indented and the compact layout.
func TestEncodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		checkAgainstOracle(t, genReportFrom(rng))
	}
}

// FuzzEnvelopeEncode drives the writer with fuzzed strings, numbers and
// specs. A report Encode accepts must match the oracle byte for byte; one
// it refuses (a non-finite value, a spec that is not JSON) must leave the
// writer untouched, and encoding/json must refuse it too.
func FuzzEnvelopeEncode(f *testing.F) {
	f.Add("pipeline.ipc", uint8(1), uint64(0), 1.5, "gzip", []byte(`{"benches":["gzip"]}`), int64(1))
	f.Add("name.<&> \xff", uint8(0), uint64(1<<64-1), 0.0, "a\x01b", []byte(" [1, 2 ,{} ] "), int64(2))
	f.Add("g", uint8(2), uint64(0), math.Copysign(0, -1), "", []byte(""), int64(3))
	f.Add("g", uint8(1), uint64(0), math.NaN(), "x", []byte("{}"), int64(4))
	f.Add("g", uint8(1), uint64(0), 1e21, "x", []byte("{"), int64(5))
	f.Add("k", uint8(7), uint64(9), -1e-7, "\"\\", []byte(`" <b>"`), int64(6))
	f.Fuzz(func(t *testing.T, name string, kind uint8, count uint64, value float64, label string, spec []byte, seed int64) {
		g := genReportFrom(rand.New(rand.NewSource(seed)))
		m := Metric{Name: name, Kind: Kind(kind % 4), Count: count, Value: value}
		if m.Kind == Counter {
			m.Value = 0
		} else {
			m.Count = 0
		}
		s := NewSet()
		s.add(m)
		list := oracleMetrics([]Metric{m})
		rec := Record{Labels: map[string]string{LabelBench: label, label: name}, Metrics: s}
		g.rep.Add(rec)
		g.oracle.Records = append(g.oracle.Records, oracleRecord{Labels: rec.Labels, Metrics: list})
		g.sets, g.lists = append(g.sets, s), append(g.lists, list)
		g.rep.Spec, g.oracle.Spec = spec, spec

		var got bytes.Buffer
		if err := g.rep.Encode(&got); err != nil {
			if got.Len() != 0 {
				t.Fatalf("Encode failed (%v) after writing %d bytes", err, got.Len())
			}
			if checkMetric(m) == nil && json.Valid(spec) {
				t.Fatalf("Encode refused a valid report: %v", err)
			}
			return
		}
		checkAgainstOracle(t, g)
	})
}
