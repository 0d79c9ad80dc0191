package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodeBoth returns a report's bytes through Encode and through
// encoding/json (compact).
func encodeBoth(t *testing.T, r *Report) (indented, compact []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), compact
}

// TestEncodedRecordsMatchLive: a report in which any subset of the records
// is pre-encoded (EncodedRecord) encodes byte-identically to the same
// report with every record live, with and without summary, spec and meta.
// The records cover labels and attrs together and alone, an error attr,
// an empty metric set, none of labels and attrs, and escaping; every
// subset of a four-record report puts a pre-encoded record first, in the
// middle and last, and the one-record reports make it the only record.
func TestEncodedRecordsMatchLive(t *testing.T) {
	full := edgeReports()["full"]
	recs := append(full.Records[:len(full.Records):len(full.Records)],
		Record{Metrics: NewSet().Counter(PipelineCycles, 1).Ratio(BpredAccuracy, 0.5)})
	lists := [][]Record{recs}
	for _, rec := range recs {
		lists = append(lists, []Record{rec})
	}
	build := func(list []Record, dressed bool, mask int) *Report {
		r := NewReport("renosweep")
		if dressed {
			r.Meta, r.Spec, r.Summary = full.Meta, full.Spec, NewSet().Counter(SweepRuns, uint64(len(list)))
		}
		for i, rec := range list {
			if mask&(1<<i) != 0 {
				var err error
				if rec, err = EncodedRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
			r.Add(rec)
		}
		return r
	}
	for _, dressed := range []bool{false, true} {
		for _, list := range lists {
			want, wantCompact := encodeBoth(t, build(list, dressed, 0))
			for mask := 1; mask < 1<<len(list); mask++ {
				got, gotCompact := encodeBoth(t, build(list, dressed, mask))
				if !bytes.Equal(got, want) {
					t.Fatalf("dressed %v, %d records, pre-encoded mask %b: Encode differs:\n got %q\nwant %q",
						dressed, len(list), mask, got, want)
				}
				if !bytes.Equal(gotCompact, wantCompact) {
					t.Fatalf("dressed %v, %d records, pre-encoded mask %b: compact form differs:\n got %q\nwant %q",
						dressed, len(list), mask, gotCompact, wantCompact)
				}
			}
		}
	}

	// The oracle's random reports, with a random subset pre-encoded.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		g := genReportFrom(rng)
		want, _ := encodeBoth(t, g.rep)
		for j, rec := range g.rep.Records {
			if rng.Intn(2) == 0 {
				var err error
				if g.rep.Records[j], err = EncodedRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, _ := encodeBoth(t, g.rep); !bytes.Equal(got, want) {
			t.Fatalf("report %d: Encode with pre-encoded records differs:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestEncodedRecordRefusals: EncodedRecord refuses what Encode refuses in
// a record, a missing metric set and a metric with no JSON form, and keeps
// the record's fields for readers.
func TestEncodedRecordRefusals(t *testing.T) {
	if _, err := EncodedRecord(Record{Labels: map[string]string{LabelBench: "gzip"}}); err == nil {
		t.Error("EncodedRecord accepted a record without metrics")
	}
	bad := NewSet()
	bad.add(Metric{Name: "g", Kind: Gauge, Value: math.Inf(1)})
	if _, err := EncodedRecord(Record{Metrics: bad}); err == nil {
		t.Error("EncodedRecord accepted a non-finite gauge")
	}
	rec := Record{Labels: map[string]string{LabelBench: "gzip"}, Attrs: map[string]string{AttrRunHash: "h"}, Metrics: edgeSet()}
	enc, err := EncodedRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Label(LabelBench) != "gzip" || enc.Attr(AttrRunHash) != "h" || !enc.Metrics.Equal(rec.Metrics) {
		t.Errorf("pre-encoded record lost its fields: %+v", enc)
	}
}
