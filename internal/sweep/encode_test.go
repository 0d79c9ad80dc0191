package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"reno/metrics"
)

// resultPayload is the record payload as encoding/json renders it from
// struct tags: the field order and omitempty rules EncodeResult writes by
// hand, and the type the decoding oracle reads a payload into.
type resultPayload struct {
	Bench   string `json:"bench"`
	Suite   string `json:"suite,omitempty"`
	Machine string `json:"machine,omitempty"`
	Config  string `json:"config"`
	Seed    int64  `json:"seed,omitempty"`
	Backend string `json:"backend,omitempty"`

	Cycles uint64  `json:"cycles"`
	Insts  uint64  `json:"insts"`
	IPC    float64 `json:"ipc"`

	ElimME    float64 `json:"elim_me"`
	ElimCF    float64 `json:"elim_cf"`
	ElimLoads float64 `json:"elim_loads"`
	ElimALU   float64 `json:"elim_alu"`
	ElimTotal float64 `json:"elim_total"`

	BranchAccuracy float64 `json:"branch_accuracy"`

	ArchHash string `json:"arch_hash"`
	Hash     string `json:"run_hash"`

	WallNS         int64   `json:"wall_ns,omitempty"`
	SimInstsPerSec float64 `json:"sim_insts_per_sec,omitempty"`

	StopReason string       `json:"stop_reason,omitempty"`
	Metrics    *metrics.Set `json:"metrics"`
}

// resultFile is the envelope around the payload.
type resultFile struct {
	Schema   string          `json:"schema"`
	Key      string          `json:"key"`
	Payload  json.RawMessage `json:"payload"`
	Checksum string          `json:"checksum"`
}

// payloadChecksum digests the compact payload bytes.
func payloadChecksum(payload []byte) string {
	h := newFieldHash()
	h.write(payload)
	return checksumPrefix + h.String()
}

// oracleEncodeResult is EncodeResult as it was built on encoding/json: the
// payload through json.Marshal, checksummed in that compact form, then the
// envelope through json.MarshalIndent, which indents the payload in place.
// r must be complete.
func oracleEncodeResult(key string, r *Result) ([]byte, error) {
	payload, err := json.Marshal(resultPayload{
		Bench: r.Bench, Suite: r.Suite, Machine: r.Machine, Config: r.Config, Seed: r.Seed,
		Backend: r.Backend,
		Cycles:  r.Cycles, Insts: r.Insts, IPC: r.IPC,
		ElimME: r.ElimME, ElimCF: r.ElimCF, ElimLoads: r.ElimLoads, ElimALU: r.ElimALU, ElimTotal: r.ElimTotal,
		BranchAccuracy: r.BranchAccuracy,
		ArchHash:       r.ArchHash, Hash: r.Hash,
		WallNS: r.WallNS, SimInstsPerSec: r.SimInstsPerSec,
		StopReason: r.stopReason, Metrics: r.Metrics,
	})
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(resultFile{
		Schema:   ResultSchemaV1,
		Key:      key,
		Payload:  payload,
		Checksum: payloadChecksum(payload),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// checkEncodeMatchesOracle fails t unless EncodeResult and the oracle both
// refuse r or both write the same bytes for it.
func checkEncodeMatchesOracle(t *testing.T, key string, r *Result) {
	t.Helper()
	got, err := EncodeResult(key, r)
	want, oerr := oracleEncodeResult(key, r)
	if (err != nil) != (oerr != nil) {
		t.Fatalf("EncodeResult error %v, oracle error %v", err, oerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeResult differs from the oracle:\n%s\n---- oracle\n%s", got, want)
	}
}

// awkwardStrings are strings encoding/json escapes: HTML characters, a
// quote and a backslash, control characters, U+2028 and U+2029, invalid
// UTF-8, and non-ASCII text it writes as it is.
var awkwardStrings = []string{
	`a<b>&"c"\d`, "tab\there\x00\x1f\x7f", "line\u2028sep\u2029", "bad\xff\xfe utf8", "größe",
}

// awkwardFloats are floats at the edges of encoding/json's number forms:
// zero and negative zero, the exponent form at both ends, and integers
// past float64's exact range.
var awkwardFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20, 1<<53 + 1, 123456789.125}

// TestEncodeResultMatchesReflection: the reflection-free encoder writes
// the bytes the encoding/json encoder wrote, for every pinned record,
// with every optional field empty and filled, with strings that need
// escaping in every string field and in the metrics, and with floats at
// the edges of the number forms in every float field; both refuse a
// non-finite float.
func TestEncodeResultMatchesReflection(t *testing.T) {
	var base *Result
	var key string
	for _, rec := range pinnedRecords(t) {
		k, r, err := DecodeResult(rec)
		if err != nil {
			t.Fatal(err)
		}
		checkEncodeMatchesOracle(t, k, r)
		key, base = k, r
	}
	variant := func(edit func(r *Result)) {
		t.Helper()
		r := *base
		edit(&r)
		checkEncodeMatchesOracle(t, key, &r)
	}

	variant(func(r *Result) {
		r.Suite, r.Machine, r.Seed, r.Backend, r.WallNS, r.SimInstsPerSec, r.stopReason = "", "", 0, "", 0, 0, ""
	})
	variant(func(r *Result) {
		r.Suite, r.Machine, r.Seed, r.Backend, r.WallNS, r.SimInstsPerSec, r.stopReason = "s", "m", -3, "functional", 12, 0.5, "max-insts"
	})
	variant(func(r *Result) {
		r.Seed, r.WallNS, r.SimInstsPerSec = math.MinInt64, math.MaxInt64, math.Copysign(0, -1)
	})
	variant(func(r *Result) { r.Cycles, r.Insts = math.MaxUint64, 0 })
	variant(func(r *Result) { r.Metrics = metrics.NewSet() })
	for _, s := range awkwardStrings {
		variant(func(r *Result) {
			r.Bench, r.Suite, r.Machine, r.Config, r.Backend, r.ArchHash, r.Hash, r.stopReason = s, s, s, s, s, s, s, s
		})
		variant(func(r *Result) { r.Metrics = r.Metrics.Clone().Counter(s, 7).Gauge("z."+s, -2.5) })
		r := *base
		checkEncodeMatchesOracle(t, s, &r)
	}
	floats := func(r *Result) []*float64 {
		return []*float64{&r.IPC, &r.ElimME, &r.ElimCF, &r.ElimLoads, &r.ElimALU, &r.ElimTotal, &r.BranchAccuracy, &r.SimInstsPerSec}
	}
	for _, v := range append(awkwardFloats, math.NaN(), math.Inf(1), math.Inf(-1)) {
		for i := range floats(base) {
			variant(func(r *Result) { *floats(r)[i] = v })
		}
		variant(func(r *Result) { r.Metrics = r.Metrics.Clone().Gauge("z.edge", v) })
	}
}

// FuzzEncodeResult holds the reflection-free encoder to the encoding/json
// one on a pinned record with its strings, integers and floats replaced
// and one metric added: both refuse the result, or both write the same
// bytes. The seeds are the edge cases of TestEncodeResultMatchesReflection.
func FuzzEncodeResult(f *testing.F) {
	key, base, err := DecodeResult(pinnedRecords(f)[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, base.Bench, base.Suite, base.stopReason, base.Seed, base.WallNS, base.Cycles, base.IPC, base.SimInstsPerSec, "it.hits", 0.5)
	f.Add("", "", "", "", int64(0), int64(0), uint64(0), 0.0, 0.0, "", 0.0)
	for i, s := range awkwardStrings {
		v := awkwardFloats[i%len(awkwardFloats)]
		f.Add(s, s, s, s, -int64(i), int64(i), uint64(i), v, -v, s, v)
	}
	for _, v := range awkwardFloats {
		f.Add(key, "b", "", "", int64(1), int64(0), uint64(1), v, v, "g", v)
	}
	f.Fuzz(func(t *testing.T, key, bench, suite, stop string, seed, wallNS int64, cycles uint64, ipc, rate float64, metric string, value float64) {
		r := *base
		r.Bench, r.Suite, r.stopReason = bench, suite, stop
		r.Seed, r.WallNS, r.Cycles = seed, wallNS, cycles
		r.IPC, r.ElimTotal, r.SimInstsPerSec = ipc, -ipc, rate
		if metric != "" {
			r.Metrics = r.Metrics.Clone().Gauge(metric, value)
		}
		checkEncodeMatchesOracle(t, key, &r)
	})
}
