package metrics

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// fullSet builds a set exercising every kind, including values that would
// break a float-only encoding.
func fullSet() *Set {
	s := NewSet()
	s.Counter(PipelineCycles, 1<<62+3) // beyond float64's exact-integer range
	s.Counter(PipelineInsts, 123_456)
	s.Gauge(PipelineIPC, 1.234567890123456)
	s.Gauge(RenoElimME, 4.3)
	s.Gauge("custom.negative", -2.5)
	s.Ratio(CacheL1DMissRate, 0.034)
	s.Ratio(BpredAccuracy, 1.0)
	return s
}

// TestMetricRoundTripIdentity pins the loss-free encoding contract:
// encode → decode reproduces every metric exactly (uint64 counters
// included), and re-encoding is byte-identical.
func TestMetricRoundTripIdentity(t *testing.T) {
	rep := NewReport("test")
	rep.Meta = map[string]string{"scale": "1", "host": "unit-test"}
	rep.Spec = []byte(`{"benches":["gzip"]}`)
	rep.Summary = NewSet().Counter(SweepRuns, 2).Gauge(SweepMeanIPC, 1.5)
	rep.Add(Record{
		Labels:  map[string]string{LabelBench: "gzip", LabelMachine: "4w", LabelConfig: "RENO", LabelSeed: "0"},
		Attrs:   map[string]string{AttrArchHash: "00deadbeef00cafe"},
		Metrics: fullSet(),
	})
	rep.Add(Record{
		Labels:  map[string]string{LabelBench: "gsm.de"},
		Attrs:   map[string]string{AttrError: "canceled"},
		Metrics: NewSet().Counter(PipelineCycles, 7),
	})

	var buf1 bytes.Buffer
	if err := rep.Encode(&buf1); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(buf1.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	if dec.Schema != SchemaV1 || dec.Tool != "test" {
		t.Fatalf("envelope fields lost: %+v", dec)
	}
	if len(dec.Records) != len(rep.Records) {
		t.Fatalf("got %d records, want %d", len(dec.Records), len(rep.Records))
	}
	for i := range rep.Records {
		if !dec.Records[i].Metrics.Equal(rep.Records[i].Metrics) {
			t.Errorf("record %d metrics differ after round trip:\n got %+v\nwant %+v",
				i, dec.Records[i].Metrics.All(), rep.Records[i].Metrics.All())
		}
	}
	if !dec.Summary.Equal(rep.Summary) {
		t.Errorf("summary differs after round trip")
	}
	if c, ok := dec.Records[0].Metrics.Count(PipelineCycles); !ok || c != 1<<62+3 {
		t.Errorf("counter precision lost: got %d", c)
	}

	// Re-encoding the decoded document must be byte-identical: the
	// encoding is canonical.
	var buf2 bytes.Buffer
	if err := dec.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Errorf("encode(decode(x)) != x:\n%s\n---\n%s", buf1.Bytes(), buf2.Bytes())
	}
}

// TestSetSemantics covers replacement, lookup, ordering, and equality.
func TestSetSemantics(t *testing.T) {
	s := NewSet()
	s.Counter("b.x", 1).Counter("a.y", 2).Counter("b.x", 9)
	if s.Len() != 2 {
		t.Fatalf("replacement added instead: len %d", s.Len())
	}
	if c, _ := s.Count("b.x"); c != 9 {
		t.Errorf("replacement did not take: %d", c)
	}
	all := s.All()
	if all[0].Name != "a.y" || all[1].Name != "b.x" {
		t.Errorf("All not name-sorted: %+v", all)
	}

	u := NewSet().Counter("a.y", 2).Counter("b.x", 9) // different insertion order
	if !s.Equal(u) {
		t.Errorf("order-insensitive equality failed")
	}
	u.Gauge("c.z", 1)
	if s.Equal(u) {
		t.Errorf("sets of different length compare equal")
	}

	if _, ok := s.Count("a.missing"); ok {
		t.Errorf("lookup of absent metric succeeded")
	}
	if v, ok := s.Value("a.y"); !ok || v != 2 {
		t.Errorf("Value on counter: %v %v", v, ok)
	}
}

// TestNonFiniteValuesDropped: NaN/Inf measurements become absent metrics.
func TestNonFiniteValuesDropped(t *testing.T) {
	s := NewSet()
	s.Gauge("g.nan", math.NaN())
	s.Gauge("g.inf", math.Inf(1))
	s.Ratio("r.nan", math.NaN())
	s.Gauge("g.ok", 1)
	if s.Len() != 1 {
		t.Fatalf("non-finite values not dropped: %+v", s.All())
	}
	// Ratios clamp float error at the boundaries instead of failing.
	s.Ratio("r.hot", 1.0000000000000002)
	if v, _ := s.Value("r.hot"); v != 1 {
		t.Errorf("ratio not clamped: %v", v)
	}
}

// TestDecodeRejections: wrong schema, unknown fields, bad kinds, duplicate
// names, and out-of-range ratios all fail loudly.
func TestDecodeRejections(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":"reno.metrics/v999","records":[]}`,
		"no schema":     `{"records":[]}`,
		"unknown field": `{"schema":"reno.metrics/v1","recordz":[]}`,
		"bad kind":      `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"histogram","value":1}]}]}`,
		"unnamed":       `{"schema":"reno.metrics/v1","records":[{"metrics":[{"kind":"counter","value":1}]}]}`,
		"dup name":      `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"counter","value":1},{"name":"x","kind":"counter","value":2}]}]}`,
		"float counter": `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"counter","value":1.5}]}]}`,
		"ratio range":   `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"ratio","value":1.5}]}]}`,
		"nil metrics":   `{"schema":"reno.metrics/v1","records":[{"labels":{"bench":"gzip"}}]}`,
		// A metric object is read strictly: exact keys, each once, no
		// other, and no null.
		"metric unknown field": `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"counter","value":1,"unit":"ns"}]}]}`,
		"metric key case":      `{"schema":"reno.metrics/v1","records":[{"metrics":[{"Name":"x","kind":"counter","value":1}]}]}`,
		"metric key repeated":  `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"counter","value":1,"value":2}]}]}`,
		"metric null value":    `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"gauge","value":null}]}]}`,
		"metric no value":      `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"gauge"}]}]}`,
		"metric string value":  `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"gauge","value":"1"}]}]}`,
		"huge gauge":           `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"gauge","value":1e999}]}]}`,
		"negative counter":     `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"counter","value":-1}]}]}`,
	}
	for name, doc := range cases {
		if _, err := Decode([]byte(doc)); err == nil {
			t.Errorf("%s: decode accepted %s", name, doc)
		}
	}
	ok := `{"schema":"reno.metrics/v1","records":[{"metrics":[{"name":"x","kind":"counter","value":1}]}]}`
	if _, err := Decode([]byte(ok)); err != nil {
		t.Errorf("minimal valid document rejected: %v", err)
	}
}

// TestEncodeRejectsNonFiniteMetric: a hand-built Metric that bypassed the
// Set constructors still cannot produce an invalid document, and the
// refusal comes before any byte reaches the writer, wherever in the
// document the bad value sits.
func TestEncodeRejectsNonFiniteMetric(t *testing.T) {
	bad := NewSet()
	bad.add(Metric{Name: "bad", Kind: Gauge, Value: math.NaN()})
	inf := NewSet()
	inf.add(Metric{Name: "inf", Kind: Ratio, Value: math.Inf(-1)})
	lastRecord := NewReport("test")
	lastRecord.Add(Record{Metrics: fullSet()})
	lastRecord.Add(Record{Metrics: bad})
	summary := NewReport("test")
	summary.Summary = inf
	summary.Add(Record{Metrics: fullSet()})
	for name, rep := range map[string]*Report{"last record": lastRecord, "summary": summary} {
		var buf bytes.Buffer
		err := rep.Encode(&buf)
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: expected non-finite encode error, got %v", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: refused encode wrote %d bytes", name, buf.Len())
		}
	}
	if _, err := bad.MarshalJSON(); err == nil {
		t.Error("Set.MarshalJSON accepted a NaN gauge")
	}
}

// TestCloneHasRoomForRunTelemetry: a copy of a run's set takes the two
// wall-clock metrics emission adds without growing, and a copy of a set
// that holds them is at its exact size.
func TestCloneHasRoomForRunTelemetry(t *testing.T) {
	run := NewSet().Counter(PipelineCycles, 10).Gauge(PipelineIPC, 1.5)
	c := run.Clone()
	before := &c.list[0]
	c.Counter(RunWallNS, 7).Gauge(RunSimInstsPerSec, 2)
	if &c.list[0] != before || len(c.list) != cap(c.list) {
		t.Fatalf("adding the run telemetry regrew the copy (len %d, cap %d)", len(c.list), cap(c.list))
	}
	if cc := c.Clone(); len(cc.list) != cap(cc.list) || !cc.Equal(c) {
		t.Fatalf("copy of a set with the run telemetry: len %d, cap %d", len(cc.list), cap(cc.list))
	}
}

// TestSetDecodeExactSize: a decoded set holds its metrics at their exact
// size and in name order, whatever order the array had.
func TestSetDecodeExactSize(t *testing.T) {
	var s Set
	if err := s.UnmarshalJSON([]byte(`[{"name":"b","kind":"gauge","value":2.5},{"value":3,"kind":"counter","name":"a"},{"name":"c\u00e9","kind":"ratio","value":0.5}]`)); err != nil {
		t.Fatal(err)
	}
	want := []Metric{{Name: "a", Kind: Counter, Count: 3}, {Name: "b", Kind: Gauge, Value: 2.5}, {Name: "cé", Kind: Ratio, Value: 0.5}}
	if !slices.Equal(s.list, want) || cap(s.list) != len(want) {
		t.Fatalf("decoded %+v (cap %d), want %+v", s.list, cap(s.list), want)
	}
	if err := s.UnmarshalJSON([]byte(`null`)); err != nil || s.Len() != 0 {
		t.Fatalf("null: %v, %d metrics", err, s.Len())
	}
}
