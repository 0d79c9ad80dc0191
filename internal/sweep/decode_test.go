package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"reno/metrics"
)

// oracleDecodeResult is the reno.result/v1 decoder as it was built on
// encoding/json: the envelope and the payload each through a json.Decoder
// with unknown fields refused, the metric array through the encoding/json
// forms of Set.UnmarshalJSON and Metric.UnmarshalJSON (oracleSet,
// oracleMetric), and the checksum over json.Marshal of the parsed payload.
// The one-pass decoder must never accept a record this one refuses, nor
// read different values from it. Unless verify is set it stops after
// parsing, before the checks that follow the payload's decoding.
func oracleDecodeResult(data []byte, verify bool) (string, *Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f resultFile
	if err := dec.Decode(&f); err != nil {
		return "", nil, fmt.Errorf("decode result: %w", err)
	}
	if f.Schema != ResultSchemaV1 {
		return "", nil, fmt.Errorf("decode result: unsupported schema %q", f.Schema)
	}
	if verify && f.Key == "" {
		return "", nil, fmt.Errorf("decode result: record has no run key")
	}
	pdec := json.NewDecoder(bytes.NewReader(f.Payload))
	pdec.DisallowUnknownFields()
	var p oraclePayload
	if err := pdec.Decode(&p); err != nil {
		return "", nil, fmt.Errorf("decode result %s: payload: %w", f.Key, err)
	}
	if verify {
		canonical, err := json.Marshal(p)
		if err != nil {
			return "", nil, fmt.Errorf("decode result %s: %w", f.Key, err)
		}
		if got := payloadChecksum(canonical); got != f.Checksum {
			return "", nil, fmt.Errorf("decode result %s: checksum mismatch (%s != %s)", f.Key, got, f.Checksum)
		}
		if p.Hash == "" || p.Metrics == nil || len(p.Metrics.list) == 0 {
			return "", nil, fmt.Errorf("decode result %s: incomplete record", f.Key)
		}
		if _, err := strconv.ParseUint(p.ArchHash, 16, 64); err != nil {
			return "", nil, fmt.Errorf("decode result %s: arch hash %q: %w", f.Key, p.ArchHash, err)
		}
	}
	var list []metrics.Metric
	if p.Metrics != nil {
		list = p.Metrics.list
	}
	res := &Result{
		Bench: p.Bench, Suite: p.Suite, Machine: p.Machine, Config: p.Config, Seed: p.Seed,
		Backend: p.Backend,
		Cycles:  p.Cycles, Insts: p.Insts, IPC: p.IPC,
		ElimME: p.ElimME, ElimCF: p.ElimCF, ElimLoads: p.ElimLoads, ElimALU: p.ElimALU, ElimTotal: p.ElimTotal,
		BranchAccuracy: p.BranchAccuracy,
		ArchHash:       p.ArchHash, Hash: p.Hash,
		WallNS: p.WallNS, SimInstsPerSec: p.SimInstsPerSec,
		stopReason: p.StopReason,
	}
	return f.Key, withMetrics(res, list), nil
}

// withMetrics gives r a metric set holding exactly list, by decoding its
// canonical encoding (which the oracle's encoder writes, so no value is
// clamped or dropped on the way).
func withMetrics(r *Result, list []metrics.Metric) *Result {
	r.Metrics = new(metrics.Set)
	if list == nil {
		return r
	}
	enc, err := json.Marshal(list)
	if err == nil {
		err = r.Metrics.UnmarshalJSON(enc)
	}
	if err != nil {
		panic(fmt.Sprintf("oracle metric list does not round-trip: %v", err))
	}
	return r
}

// oraclePayload is resultPayload with the oracle's metric set: the outer
// Metrics field hides the embedded one, and both come last, so the field
// order json.Marshal writes is resultPayload's.
type oraclePayload struct {
	resultPayload
	Metrics *oracleSet `json:"metrics"`
}

// oracleSet decodes a metric array as Set.UnmarshalJSON did through
// encoding/json, and encodes it as a JSON array of Metric.MarshalJSON
// objects, which is Set.MarshalJSON's form.
type oracleSet struct{ list []metrics.Metric }

func (s *oracleSet) UnmarshalJSON(data []byte) error {
	var list []oracleMetric
	if err := json.Unmarshal(data, &list); err != nil {
		return err
	}
	s.list = make([]metrics.Metric, len(list))
	for i, m := range list {
		s.list[i] = metrics.Metric(m)
	}
	slices.SortFunc(s.list, func(a, b metrics.Metric) int { return strings.Compare(a.Name, b.Name) })
	for i := 1; i < len(s.list); i++ {
		if s.list[i].Name == s.list[i-1].Name {
			return fmt.Errorf("duplicate metric %q", s.list[i].Name)
		}
	}
	return nil
}

func (s *oracleSet) MarshalJSON() ([]byte, error) {
	if s.list == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.list)
}

// oracleMetric decodes a metric as Metric.UnmarshalJSON did: fields
// matched as encoding/json matches them, unknown ones ignored, and the
// value parsed by kind.
type oracleMetric metrics.Metric

func (m *oracleMetric) UnmarshalJSON(data []byte) error {
	var raw struct {
		Name  string          `json:"name"`
		Kind  string          `json:"kind"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Name == "" {
		return fmt.Errorf("metric without a name")
	}
	kinds := map[string]metrics.Kind{"counter": metrics.Counter, "gauge": metrics.Gauge, "ratio": metrics.Ratio}
	k, ok := kinds[raw.Kind]
	if !ok {
		return fmt.Errorf("metric %q: unknown kind %q", raw.Name, raw.Kind)
	}
	*m = oracleMetric{Name: raw.Name, Kind: k}
	if k == metrics.Counter {
		v, err := strconv.ParseUint(string(raw.Value), 10, 64)
		m.Count = v
		return err
	}
	v, err := strconv.ParseFloat(string(raw.Value), 64)
	if err != nil {
		return err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || k == metrics.Ratio && (v < 0 || v > 1) {
		return fmt.Errorf("metric %q: value %v out of range", raw.Name, v)
	}
	m.Value = v
	return nil
}

// sameDecoded reports whether two decoded results hold the same values,
// floats compared bit for bit.
func sameDecoded(a, b *Result) error {
	floats := func(r *Result) []float64 {
		return []float64{r.IPC, r.ElimME, r.ElimCF, r.ElimLoads, r.ElimALU, r.ElimTotal, r.BranchAccuracy, r.SimInstsPerSec}
	}
	if !slices.EqualFunc(floats(a), floats(b), sameFloat) {
		return fmt.Errorf("float fields %v != %v", floats(a), floats(b))
	}
	sa, sb := *a, *b
	for _, s := range []*Result{&sa, &sb} {
		s.IPC, s.ElimME, s.ElimCF, s.ElimLoads, s.ElimALU, s.ElimTotal, s.BranchAccuracy, s.SimInstsPerSec = 0, 0, 0, 0, 0, 0, 0, 0
		s.Metrics = nil
	}
	if sa != sb {
		return fmt.Errorf("fields %+v != %+v", sa, sb)
	}
	ma, mb := a.Metrics.All(), b.Metrics.All()
	if !slices.EqualFunc(ma, mb, func(x, y metrics.Metric) bool {
		return x.Name == y.Name && x.Kind == y.Kind && x.Count == y.Count && sameFloat(x.Value, y.Value)
	}) {
		return fmt.Errorf("metrics %v != %v", ma, mb)
	}
	return nil
}

func sameFloat(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// pinnedRecords returns the store records in testdata/store.
func pinnedRecords(tb testing.TB) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "store", "*.json"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no pinned store records: %v", err)
	}
	slices.Sort(files)
	var records [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		records = append(records, data)
	}
	return records
}

// TestDecodeMatchesOracle: every pinned record, and records whose strings
// need escaping, decode to the oracle's values and re-encode to their
// bytes.
func TestDecodeMatchesOracle(t *testing.T) {
	for _, rec := range append(pinnedRecords(t), escapedRecords(t)...) {
		key, got, err := DecodeResult(rec)
		if err != nil {
			t.Fatalf("%v\n%s", err, rec)
		}
		okey, want, err := oracleDecodeResult(rec, true)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if key != okey {
			t.Errorf("key %s, oracle %s", key, okey)
		}
		if err := sameDecoded(got, want); err != nil {
			t.Errorf("%s: %v", key, err)
		}
		if enc, err := EncodeResult(key, got); err != nil || !bytes.Equal(enc, rec) {
			t.Errorf("%s: re-encoded record differs (err %v)", key, err)
		}
	}
}

// escapedRecords re-encodes the first pinned record with strings that
// encoding/json escapes: HTML characters, a quote, a control character,
// U+2028 and non-ASCII text, in a label and in a metric name.
func escapedRecords(tb testing.TB) [][]byte {
	key, r, err := DecodeResult(pinnedRecords(tb)[0])
	if err != nil {
		tb.Fatal(err)
	}
	r.Bench, r.Config, r.stopReason = `a<b>&"c"`, "tab\there ", "größe"
	m := r.Metrics.Clone()
	m.Counter("é.<escaped>", 7).Ratio("z.\\ratio", 0.25)
	r.Metrics = m
	rec, err := EncodeResult(key, r)
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{rec}
}

// FuzzDecodeResult holds the one-pass decoder to the encoding/json oracle:
// whenever it accepts a record, the oracle accepts it with the same key,
// scalar fields and metric set. The checksum refuses nearly every mutated
// payload before its values are compared, so the readers' parses are also
// compared without it: whatever readRecord parses, the oracle parses to
// the same values. The seeds are the pinned store records, a record with
// escaped strings and mutations of them: escapes, an unescaped '<', a
// key whose case differs, a repeated key, bytes after the record and
// nulls.
func FuzzDecodeResult(f *testing.F) {
	records := append(pinnedRecords(f), escapedRecords(f)...)
	mutations := [][2]string{
		{`"bench": "gsm.de"`, `"bench": "gsm\u002ede"`},
		{`\u003c`, `<`},
		{`\u003c`, `\u003C`},
		{`"bench"`, `"Bench"`},
		{`"name"`, `"Name"`},
		{`"schema"`, `"key": "0000000000000000", "schema"`},
		{`"kind": "counter"`, `"kind": "counter", "kind": "counter"`},
		{`"elim_cf": 0`, `"elim_cf": null`},
		{`"elim_cf": 0`, `"elim_cf": 0.0`},
		{`"value": 0`, `"value": -0`},
		{`"value": 0`, `"value": 0, "unit": "x"`},
		{`"metrics": [`, `"metrics": null, "x": [`},
	}
	for _, rec := range records {
		f.Add(rec)
		f.Add(append(slices.Clip(rec), "{}"...))
		for _, m := range mutations {
			if mut := bytes.Replace(rec, []byte(m[0]), []byte(m[1]), 1); !bytes.Equal(mut, rec) {
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if key, got, err := DecodeResult(data); err == nil {
			okey, want, err := oracleDecodeResult(data, true)
			if err != nil {
				t.Fatalf("decoder accepted a record the oracle refuses: %v", err)
			}
			if key != okey {
				t.Fatalf("key %q, oracle %q", key, okey)
			}
			if err := sameDecoded(got, want); err != nil {
				t.Fatalf("decoder and oracle differ: %v", err)
			}
		}
		if rec, err := readRecord(data); err == nil {
			okey, want, err := oracleDecodeResult(data, false)
			if err != nil {
				t.Fatalf("reader parsed a record the oracle refuses: %v", err)
			}
			if rec.key != okey {
				t.Fatalf("key %q, oracle %q", rec.key, okey)
			}
			if err := sameDecoded(rec.r, want); err != nil {
				t.Fatalf("reader and oracle differ: %v", err)
			}
		}
	})
}

// BenchmarkDecodeResult decodes the pinned store records in turn and
// reports the time and allocations per record.
func BenchmarkDecodeResult(b *testing.B) {
	records := pinnedRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeResult(records[i%len(records)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeResult encodes the pinned store records' results in turn
// and reports the time and allocations per record.
func BenchmarkEncodeResult(b *testing.B) {
	var keys []string
	var results []*Result
	for _, rec := range pinnedRecords(b) {
		key, r, err := DecodeResult(rec)
		if err != nil {
			b.Fatal(err)
		}
		keys, results = append(keys, key), append(results, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(keys[i%len(keys)], results[i%len(results)]); err != nil {
			b.Fatal(err)
		}
	}
}
