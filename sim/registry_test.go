package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reno/sim"
)

// TestListRegistered pins the discovery listing: all three registries are
// populated, JSON-serializable under the documented keys, and consistent
// with the per-axis enumerations.
func TestListRegistered(t *testing.T) {
	r := sim.ListRegistered()
	if len(r.Benchmarks) == 0 || len(r.Machines) == 0 || len(r.Configs) == 0 {
		t.Fatalf("empty registry section: %+v", r)
	}
	if len(r.Benchmarks) != len(sim.Benchmarks()) || len(r.Configs) != len(sim.Configs()) {
		t.Error("ListRegistered disagrees with the per-axis enumerations")
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"benchmarks"`, `"machines"`, `"configs"`, `"name"`, `"desc"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("registry JSON lacks %s: %s", key, data[:120])
		}
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"Benchmarks:", "Machine base specs", "RENO configs:", "gzip", "4w", "RENO"} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText output lacks %q", want)
		}
	}
}

// TestRunKeyIdentity pins the public run-key contract: stable for equal
// specs, split by every outcome-determining input, and identical to the key
// the sweep pool reports for the matching grid cell.
func TestRunKeyIdentity(t *testing.T) {
	load := func(spec sim.Spec) *sim.Program {
		t.Helper()
		p, err := sim.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := sim.Spec{Bench: "gzip", Machine: "4w", Config: "RENO", Scale: 0.3}
	opts := sim.Options{MaxInsts: 20000}

	if a, b := load(base).RunKey(opts), load(base).RunKey(opts); a != b {
		t.Fatalf("key not stable across loads: %s vs %s", a, b)
	}
	variants := []struct {
		name string
		spec sim.Spec
		opts sim.Options
	}{
		{"bench", sim.Spec{Bench: "gap", Machine: "4w", Config: "RENO", Scale: 0.3}, opts},
		{"machine", sim.Spec{Bench: "gzip", Machine: "4w:p128", Config: "RENO", Scale: 0.3}, opts},
		{"config", sim.Spec{Bench: "gzip", Machine: "4w", Config: "BASE", Scale: 0.3}, opts},
		{"seed", sim.Spec{Bench: "gzip", Machine: "4w", Config: "RENO", Scale: 0.3, Seed: 1}, opts},
		{"scale", sim.Spec{Bench: "gzip", Machine: "4w", Config: "RENO", Scale: 0.5}, opts},
		{"budget", base, sim.Options{MaxInsts: 10000}},
		{"cpa attachment", base, sim.Options{MaxInsts: 20000, CPAChunk: 50000}},
	}
	ref := load(base).RunKey(opts)
	for _, v := range variants {
		if got := load(v.spec).RunKey(v.opts); got == ref {
			t.Errorf("%s change did not change the key", v.name)
		}
	}
	// The key must agree with what RunGrid reports for the same cell, so
	// embedders can pre-compute cache addresses for grid runs.
	g := &sim.Grid{Benches: []string{"gzip"}, Machines: []string{"4w"},
		Configs: []string{"RENO"}, Scale: 0.3, MaxInsts: 20000}
	var fromGrid string
	_, err := sim.RunGrid(context.Background(), g, sim.GridOptions{
		Progress: func(p sim.Progress) { fromGrid = p.RunKey },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromGrid == "" {
		t.Fatal("grid progress carried no run key")
	}
	if fromGrid != ref {
		t.Errorf("Program.RunKey %s != grid cell key %s", ref, fromGrid)
	}
}

// TestRunKeyAsm: assembly programs are identified by their code, not a
// benchmark name — different sources get different keys, identical sources
// the same one.
func TestRunKeyAsm(t *testing.T) {
	const a = "start:\n\taddi r1, r1, 1\n\thalt\n"
	const b = "start:\n\taddi r1, r1, 2\n\thalt\n"
	pa, err := sim.LoadAsm(a, sim.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	pa2, err := sim.LoadAsm(a, sim.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sim.LoadAsm(b, sim.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.RunKey(sim.Options{}) != pa2.RunKey(sim.Options{}) {
		t.Error("identical assembly got different keys")
	}
	if pa.RunKey(sim.Options{}) == pb.RunKey(sim.Options{}) {
		t.Error("different assembly shares a key")
	}
}

// TestRunKeysPinned pins the bytes of Program.RunKey for one benchmark spec
// on both backends, plain and CPA-attached, and for one assembly program.
// The key is a stable cache address: a changed key orphans every cached
// result. A deliberate change regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestRunKeysPinned ./sim/
func TestRunKeysPinned(t *testing.T) {
	var buf bytes.Buffer
	for _, be := range []string{"detailed", "functional"} {
		p, err := sim.Load(sim.Spec{Bench: "gzip", Machine: "4w", Config: "RENO", Scale: 0.3, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		for _, cpa := range []int{0, 5_000, 50_000} {
			fmt.Fprintf(&buf, "gzip 4w/RENO scale=0.3 max=20000 backend=%s cpa=%d %s\n",
				be, cpa, p.RunKey(sim.Options{MaxInsts: 20_000, CPAChunk: cpa}))
		}
	}
	pa, err := sim.LoadAsm("start:\n\taddi r1, r1, 1\n\thalt\n", sim.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "asm 4w/RENO %s\n", pa.RunKey(sim.Options{}))

	golden := filepath.Join("testdata", "run_keys.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the pin)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("run keys changed; a changed key orphans every cached result.\n"+
			"If intentional, regenerate the pin with UPDATE_GOLDEN=1 and call the change out in review.\n"+
			"pinned:\n%s\ncurrent:\n%s", want, got)
	}
}
