package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// edgeSet holds the values and names an encoder is most likely to get
// wrong: counters beyond float64's exact range, floats that render with an
// exponent, negative zero, and names that need escaping.
func edgeSet() *Set {
	return NewSet().
		Counter("counter.max", 1<<64-1).
		Counter("counter.big", 1<<63+1).
		Counter("counter.zero", 0).
		Gauge("gauge.tiny", 1e-7).
		Gauge("gauge.huge", 1e21).
		Gauge("gauge.negzero", math.Copysign(0, -1)).
		Gauge("gauge.neg", -2.5).
		Gauge("gauge.frac", 1.234567890123456).
		Ratio("ratio.quarter", 0.25).
		Ratio("ratio.one", 1).
		Counter("name.<html>&\"q\"\\", 1).
		Counter("name.ctl\x02\t", 2).
		Counter("name.ñ✓", 3).
		Counter("name.sep\u2028\u2029", 4).
		Counter("name.bad\xff\xfe", 5)
}

// edgeReports are hand-built envelopes covering every optional field:
// meta, spec, a nil and an empty summary, records with and without labels
// and attrs, an error attr, a stop reason, an empty metric set, and strings
// that need HTML, control-character, line-separator and invalid-UTF-8
// escaping.
func edgeReports() map[string]*Report {
	full := NewReport("reno<sim>&\"x\"")
	full.Meta = map[string]string{
		"host":  "héllo wörld ✓",
		"esc":   "<>&\"\\",
		"ctl":   "a\x01b\tc\nd\x7f",
		"ls":    "line\u2028sep\u2029end",
		"bad":   "\xff\xfe ok",
		"<key>": "&",
	}
	full.Spec = json.RawMessage(" { \"benches\" : [\"gzip\", \"<&>\"],\n\t\"n\": [1, 2.5e3, {}, [ ]], \"empty\": [],\n \"u\": \"\u2028 é \\u00e9\", \"obj\": {\"k\": null, \"t\": true} } ")
	full.Add(Record{
		Labels:  map[string]string{LabelBench: "gzip", LabelMachine: "4w:p96", LabelConfig: "RENO+FI", LabelSeed: "1", LabelSuite: "SPECint"},
		Attrs:   map[string]string{AttrRunHash: "00deadbeef00cafe", AttrArchHash: "0123456789abcdef", AttrStopReason: "max-insts"},
		Metrics: edgeSet(),
	})
	full.Add(Record{
		Attrs:   map[string]string{AttrError: "boom <x> & \"quoted\"\n\ttrace"},
		Metrics: NewSet(),
	})
	full.Add(Record{
		Labels:  map[string]string{LabelBench: "gsm.de"},
		Metrics: NewSet().Counter(PipelineCycles, 7).Gauge(PipelineIPC, 0.5),
	})

	empty := NewReport("")
	empty.Summary = NewSet()

	summary := NewReport("renosweep")
	summary.Summary = NewSet().Counter(SweepRuns, 2).Gauge(SweepMeanIPC, 1.5)
	summary.Records = []Record{}

	return map[string]*Report{"full": full, "empty-summary": empty, "summary-only": summary}
}

// TestEdgeEncodingPinned pins the exact bytes of the edge reports, both
// through Encode and through encoding/json (compact, the form the result
// store checksums), and of the edge set's and one metric's MarshalJSON. A
// deliberate format change regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestEdgeEncodingPinned ./metrics/
func TestEdgeEncodingPinned(t *testing.T) {
	var got bytes.Buffer
	reports := edgeReports()
	for _, name := range []string{"full", "empty-summary", "summary-only"} {
		got.WriteString("-- Encode " + name + " --\n")
		if err := reports[name].Encode(&got); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(reports[name])
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("-- json.Marshal " + name + " --\n")
		got.Write(compact)
		got.WriteByte('\n')
	}
	set, err := json.Marshal(edgeSet())
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("-- Set.MarshalJSON --\n")
	got.Write(set)
	got.WriteByte('\n')
	m, err := json.Marshal(Metric{Name: "x<y>", Kind: Gauge, Value: -1e-300})
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("-- Metric.MarshalJSON --\n")
	got.Write(m)
	got.WriteByte('\n')

	golden := filepath.Join("testdata", "edge.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the pin)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("edge encodings changed.\n--- pinned\n%s\n--- current\n%s", want, got.Bytes())
	}
}
