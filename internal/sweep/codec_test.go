package sweep

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reno/metrics"
)

// liveResult simulates one small run and returns it with its run key.
func liveResult(t *testing.T) (string, *Result) {
	t.Helper()
	grid, err := ParseGridJSON([]byte(`{"benches":["gzip"],"renos":["RENO"],"max_insts":5000,"scale":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := grid.Options()
	results := Run(jobs, opts)
	r := results[0]
	if r.Err != "" || r.Metrics == nil {
		t.Fatalf("live run failed: %+v", r)
	}
	return jobs[0].Key(opts), r
}

// TestResultCodecRoundTrip pins the tentpole property of the persistent
// store format: a live-simulated result encodes, decodes, and re-encodes
// byte-identically, the decoded result equals the live one, and it emits
// an envelope record byte-identical to the live one — so a store hit is
// observationally equivalent to re-simulating.
func TestResultCodecRoundTrip(t *testing.T) {
	key, live := liveResult(t)

	enc, err := EncodeResult(key, live)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, restored, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("decoded key %s, want %s", gotKey, key)
	}
	if !restored.Complete() {
		t.Fatalf("decoded result is not complete: %+v", restored)
	}

	// Re-encode: byte-identical.
	enc2, err := EncodeResult(key, restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoded record differs from the original:\n%s\n----\n%s", enc, enc2)
	}

	// A finished run has one form: the decoded result is the live one,
	// field for field (metric set, stop reason and arch hash included).
	if !reflect.DeepEqual(restored, live) {
		t.Fatalf("decoded result differs from the live one:\nlive:     %+v\nrestored: %+v", live, restored)
	}

	// Envelope-record equality, the property /results depends on: a report
	// over the restored result is byte-identical to one over the live
	// result, in both stable and wall-clock modes.
	grid := Grid{Benches: []string{"gzip"}}
	for _, det := range []bool{true, false} {
		var a, b bytes.Buffer
		if err := NewReport(grid, []*Result{live}).WriteJSON(&a, EmitOptions{Deterministic: det}); err != nil {
			t.Fatal(err)
		}
		if err := NewReport(grid, []*Result{restored}).WriteJSON(&b, EmitOptions{Deterministic: det}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("deterministic=%v: envelope over restored result differs from live:\n%s\n----\n%s", det, a.Bytes(), b.Bytes())
		}
	}

	// Audit parity: the restored result carries the equivalence witness.
	if w := Audit([]*Result{live, restored}); len(w) != 0 {
		t.Fatalf("audit over live+restored copies of one run warned: %v", w)
	}
}

// TestResultCodecRejectsCorruption: every way an entry can rot decodes into
// an error (and therefore a cache miss), never into data.
func TestResultCodecRejectsCorruption(t *testing.T) {
	key, live := liveResult(t)
	enc, err := EncodeResult(key, live)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "decode result"},
		{"not json", []byte("!!"), "decode result"},
		{"truncated", enc[:len(enc)/2], "decode result"},
		{"wrong schema", bytes.Replace(enc, []byte(ResultSchemaV1), []byte("reno.result/v9"), 1), "unsupported schema"},
		{"bit flip in payload", bytes.Replace(enc, []byte(`"bench": "gzip"`), []byte(`"bench": "gzap"`), 1), "checksum mismatch"},
		{"checksum tampered", bytes.Replace(enc, []byte(`"checksum": "fnv1a64:`), []byte(`"checksum": "fnv1a64:0`), 1), "checksum"},
		{"unknown envelope field", bytes.Replace(enc, []byte(`"schema"`), []byte(`"surprise": 1, "schema"`), 1), "decode result"},
	}
	for _, c := range cases {
		if c.name != "empty" && bytes.Equal(c.data, enc) {
			t.Fatalf("%s: corruption did not change the bytes", c.name)
		}
		if _, _, err := DecodeResult(c.data); err == nil {
			t.Errorf("%s: corrupted record decoded successfully", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// Records encoding/json reads as the original values (the oracle
	// accepts each one), which the one-pass decoder refuses: it matches
	// keys exactly and once, has no null, reads nothing after the record,
	// refuses fields a metric does not have, and checksums the payload in
	// the form it is stored in, which must be the canonical one.
	functional := pinnedRecords(t)[0] // its elim_cf is 0
	lt := escapedRecords(t)[0]        // its bench holds an escaped '<'
	strict := []struct {
		name string
		data []byte
		want string
	}{
		{"key case differs", bytes.Replace(enc, []byte(`"bench"`), []byte(`"Bench"`), 1), `unknown field "Bench"`},
		{"metric key case differs", bytes.Replace(enc, []byte(`"kind"`), []byte(`"Kind"`), 1), `unknown field "Kind"`},
		{"envelope key case differs", bytes.Replace(enc, []byte(`"checksum"`), []byte(`"Checksum"`), 1), `unknown field "Checksum"`},
		{"repeated key", bytes.Replace(enc, []byte(`"bench": "gzip"`), []byte(`"bench": "gzip", "bench": "gzip"`), 1), `duplicate key "bench"`},
		{"repeated envelope key", bytes.Replace(enc, []byte(`"key"`), []byte(`"schema": "reno.result/v1", "key"`), 1), `duplicate key "schema"`},
		{"null", bytes.Replace(functional, []byte(`"elim_cf": 0`), []byte(`"elim_cf": null`), 1), "elim_cf: json at offset"},
		{"bytes after the record", append(slices.Clip(enc), "{}"...), "data after the document"},
		{"unknown metric field", bytes.Replace(enc, []byte(`"kind"`), []byte(`"unit": "ns", "kind"`), 1), `unknown field "unit"`},
		{"escaped plain character", bytes.Replace(enc, []byte(`"gzip"`), []byte(`"gz\u0069p"`), 1), "checksum mismatch"},
		{"unescaped <", bytes.Replace(lt, []byte(`\u003c`), []byte(`<`), 1), "checksum mismatch"},
		{"another number form", bytes.Replace(functional, []byte(`"elim_cf": 0`), []byte(`"elim_cf": 0e0`), 1), "checksum mismatch"},
	}
	for _, c := range strict {
		if _, _, err := oracleDecodeResult(c.data, true); err != nil {
			t.Errorf("%s: the encoding/json decoder refuses it too (%v); not a stricter case", c.name, err)
		}
		if _, _, err := DecodeResult(c.data); err == nil {
			t.Errorf("%s: decoded successfully", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestEncodeResultRejectsIncomplete: failures and partials are not
// persistable — the same rule the in-memory cache applies.
func TestEncodeResultRejectsIncomplete(t *testing.T) {
	if _, err := EncodeResult("0000000000000000", nil); err == nil {
		t.Error("encoded a nil result")
	}
	if _, err := EncodeResult("0000000000000000", &Result{Err: "boom"}); err == nil {
		t.Error("encoded a failed result")
	}
	if _, err := EncodeResult("0000000000000000", &Result{Bench: "gzip"}); err == nil {
		t.Error("encoded a partial result with no pipeline state")
	}
}

// TestResultClone: mutating a clone's fields leaves the original
// untouched.
func TestResultClone(t *testing.T) {
	_, live := liveResult(t)
	c := live.Clone()
	c.IPC = -1
	c.Hash = "mutated"
	if live.IPC == -1 || live.Hash == "mutated" {
		t.Fatalf("mutating the clone changed the original: %+v", live)
	}
	if (*Result)(nil).Clone() != nil {
		t.Error("nil clone is not nil")
	}

	// A clone shares its metric set instead of copying it. Emitting the
	// clone twice (each emission layers the wall-clock metrics onto a
	// copy), mutating the emitted sets and mutating the clone leave the
	// original's set and envelope unchanged.
	envelope := func(r *Result) []byte {
		var b bytes.Buffer
		if err := NewReport(Grid{}, []*Result{r}).WriteJSON(&b, EmitOptions{}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before, want := live.Metrics.All(), envelope(live)
	c = live.Clone()
	if c.Metrics != live.Metrics {
		t.Error("Clone copied the metric set; it is shared read-only")
	}
	for i := 0; i < 2; i++ {
		rec := c.record(EmitOptions{})
		if _, ok := rec.Metrics.Lookup(metrics.RunWallNS); !ok {
			t.Fatalf("emission %d has no %s", i, metrics.RunWallNS)
		}
		rec.Metrics.Counter(metrics.PipelineCycles, 0).Counter("injected", 1)
	}
	c.WallNS, c.Hash = -1, "mutated"
	if !slices.Equal(live.Metrics.All(), before) {
		t.Fatal("emitting or mutating a clone changed the original metric set")
	}
	if got := envelope(live); !bytes.Equal(got, want) {
		t.Fatalf("emitting or mutating a clone changed the original's envelope:\n%s\n----\n%s", want, got)
	}
}
