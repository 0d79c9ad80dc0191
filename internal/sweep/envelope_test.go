package sweep

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"reno/internal/machine"
)

// The tests in this file pin the exact bytes of the reno.metrics/v1
// envelope a stable sweep emits, of the same envelope emitted from results
// that went through the persistent codec, and of reno.result/v1 store
// records. A deliberate format change regenerates them with
//
//	UPDATE_GOLDEN=1 go test -run 'TestEnvelopePinned|TestStoreRecordsPinned|TestRunKeysPinned' ./internal/sweep/

// pinnedGrids are the grids whose stable envelopes are pinned: the
// versioned grid file with inline machine and RENO specs (detailed
// backend), and a functional grid over two benchmarks, every registered
// RENO configuration and two seeds.
func pinnedGrids(t *testing.T) map[string]Grid {
	t.Helper()
	spec, err := os.ReadFile(filepath.Join("testdata", "grid_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseGridJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Grid{
		"envelope_grid_v2.golden": v2,
		"envelope_functional.golden": {
			Benches:     []string{"gzip", "gsm.de"},
			RenoConfigs: Specs(machine.RenoNames()...),
			Seeds:       []int64{0, 1},
			Backend:     "functional",
			Scale:       0.2,
			MaxInsts:    15000,
		},
	}
}

// runPinned runs g and returns its results and their run keys.
func runPinned(t *testing.T, g Grid) ([]*Result, []string) {
	t.Helper()
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := g.Options()
	opts.Workers = 2
	results := RunContext(context.Background(), jobs, opts)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		if results[i].Err != "" {
			t.Fatalf("%s: %s", results[i].Key(), results[i].Err)
		}
		keys[i] = j.Key(opts)
	}
	return results, keys
}

// stableEnvelope is what renosweep -stable writes for g's results.
func stableEnvelope(t *testing.T, g Grid, results []*Result) []byte {
	t.Helper()
	mr, err := NewReport(g, results).MetricsReport(EmitOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	mr.Tool = "renosweep"
	var buf bytes.Buffer
	if err := mr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pinBytes compares got with testdata/<name>, or rewrites that file when
// UPDATE_GOLDEN is set.
func pinBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the pin)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: bytes changed at offset %d (got %d bytes, pinned %d).\n"+
			"If intentional, regenerate the pin with UPDATE_GOLDEN=1 and call the change out in review.\n"+
			"pinned: %q\ncurrent: %q", name, firstDiff(got, want), len(got), len(want),
			window(want, firstDiff(got, want)), window(got, firstDiff(got, want)))
	}
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// window returns up to 60 bytes of b around offset i.
func window(b []byte, i int) []byte {
	return b[max(0, i-30):min(len(b), i+30)]
}

// TestEnvelopePinned pins the stable envelope of each pinned grid, and
// checks that the same results, once encoded to store records and decoded
// again, emit the identical bytes: a store hit serves what a simulation
// would have. So must their clones, as a result cache serves them, both
// when their first stable emission renders the shared record memo and when
// a later one writes it.
func TestEnvelopePinned(t *testing.T) {
	for name, g := range pinnedGrids(t) {
		t.Run(name, func(t *testing.T) {
			results, keys := runPinned(t, g)
			live := stableEnvelope(t, g, results)
			pinBytes(t, name, live)

			restored := make([]*Result, len(results))
			for i, r := range results {
				rec, err := EncodeResult(keys[i], r)
				if err != nil {
					t.Fatal(err)
				}
				if _, restored[i], err = DecodeResult(rec); err != nil {
					t.Fatal(err)
				}
			}
			if got := stableEnvelope(t, g, restored); !bytes.Equal(got, live) {
				t.Errorf("envelope over decoded results differs from the live one at offset %d", firstDiff(got, live))
			}
			stored := make([]*Result, len(restored))
			for i, r := range restored {
				stored[i] = r.Clone()
			}
			for pass := 0; pass < 2; pass++ {
				served := make([]*Result, len(stored))
				for i, r := range stored {
					served[i] = r.Clone()
				}
				if got := stableEnvelope(t, g, served); !bytes.Equal(got, live) {
					t.Errorf("envelope over cloned results (pass %d) differs from the live one at offset %d", pass, firstDiff(got, live))
				}
			}
		})
	}
}

// TestRunKeysPinned pins the run key of every cell of the pinned grids, as
// Job.Key computes it and as RunContext hands it to Lookup and Progress.
// The keys are store addresses: a changed key orphans every stored result.
func TestRunKeysPinned(t *testing.T) {
	grids := pinnedGrids(t)
	names := make([]string, 0, len(grids))
	for name := range grids {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		g := grids[name]
		jobs, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		opts := g.Options()
		var looked []string // Lookup is called once per job, in job order
		opts.Lookup = func(key string) *Result {
			looked = append(looked, key)
			return &Result{Bench: jobs[len(looked)-1].Profile.Name}
		}
		progressed := make([]string, len(jobs))
		opts.Progress = func(ri RunInfo) { progressed[ri.Index] = ri.Key }
		RunContext(context.Background(), jobs, opts)
		if len(looked) != len(jobs) {
			t.Fatalf("%s: Lookup called %d times for %d jobs", name, len(looked), len(jobs))
		}
		for i, j := range jobs {
			key := j.Key(opts)
			if looked[i] != key || progressed[i] != key {
				t.Errorf("%s %s: Job.Key %s, Lookup saw %s, Progress saw %s",
					name, j.Profile.Name+"/"+j.Tag(), key, looked[i], progressed[i])
			}
			fmt.Fprintf(&buf, "%s %s/%s %s\n", strings.TrimSuffix(name, ".golden"), j.Profile.Name, j.Tag(), key)
		}
	}
	pinBytes(t, "run_keys.golden", buf.Bytes())
}

// TestStoreRecordsPinned replays store records written by an earlier build:
// each must decode under the run key its file is named after, and encode
// back to its exact bytes, so stores filled before a codec change keep
// loading without quarantine. With UPDATE_GOLDEN the records are rewritten
// from three cells: an inline-spec detailed cell and two functional cells,
// one at seed 0 and one at seed 1.
func TestStoreRecordsPinned(t *testing.T) {
	dir := filepath.Join("testdata", "store")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		grids := pinnedGrids(t)
		v2, v2Keys := runPinned(t, grids["envelope_grid_v2.golden"])
		fn, fnKeys := runPinned(t, grids["envelope_functional.golden"])
		pick := []struct {
			key string
			r   *Result
		}{
			{v2Keys[len(v2)-1], v2[len(v2)-1]},
			{fnKeys[0], fn[0]},
			{fnKeys[len(fn)-1], fn[len(fn)-1]},
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		for _, p := range pick {
			rec, err := EncodeResult(p.key, p.r)
			if err != nil {
				t.Fatal(err)
			}
			pinBytes(t, filepath.Join("store", p.key+".json"), rec)
		}
		return
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) != 3 {
		t.Fatalf("found %d pinned store records in %s, want 3 (run with UPDATE_GOLDEN=1 to create them)", len(files), dir)
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		key, r, err := DecodeResult(want)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if name := strings.TrimSuffix(filepath.Base(f), ".json"); key != name {
			t.Errorf("%s decoded under key %s", f, key)
		}
		got, err := EncodeResult(key, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoded record differs at offset %d", f, firstDiff(got, want))
		}
		if !r.Complete() {
			t.Errorf("%s: decoded result is not complete", f)
		}
	}
}

// BenchmarkEnvelopeEncode emits the stable envelope of a 714-cell sweep
// whose results were all decoded from store records, the /results path of
// a warm resubmission, and reports the bytes and allocations it costs.
func BenchmarkEnvelopeEncode(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "store", "*.json"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no pinned store records: %v", err)
	}
	var records [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		records = append(records, data)
	}
	results := make([]*Result, 714)
	for i := range results {
		if _, results[i], err = DecodeResult(records[i%len(records)]); err != nil {
			b.Fatal(err)
		}
	}
	rep := NewReport(Grid{Benches: []string{"all"}}, results)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteJSON(io.Discard, EmitOptions{Deterministic: true}); err != nil {
			b.Fatal(err)
		}
	}
}
