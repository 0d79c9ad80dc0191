package sim_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"reno/sim"
)

// TestSpecBackendBackCompat pins the facade's back-compat contract: a
// zero-value Spec selects the detailed backend, spelling it out changes
// nothing (same run key, so every pre-backend cache address stays valid),
// and a non-default backend splits the key.
func TestSpecBackendBackCompat(t *testing.T) {
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

	zero := load(base)
	if got := zero.Backend(); got != "detailed" {
		t.Errorf("zero-value Spec selected backend %q, want detailed", got)
	}

	explicit := base
	explicit.Backend = "detailed"
	if a, b := zero.RunKey(opts), load(explicit).RunKey(opts); a != b {
		t.Errorf("explicit \"detailed\" changed the run key: %s vs %s", a, b)
	}

	functional := base
	functional.Backend = "functional"
	fp := load(functional)
	if fp.Backend() != "functional" {
		t.Errorf("Program.Backend() = %q, want functional", fp.Backend())
	}
	if fp.RunKey(opts) == zero.RunKey(opts) {
		t.Error("functional backend shares the detailed run key")
	}

	bad := base
	bad.Backend = "fast"
	if _, err := sim.Load(bad); err == nil {
		t.Error("unknown backend loaded")
	} else if !strings.Contains(err.Error(), "fast") {
		t.Errorf("error %q does not name the bad backend", err)
	}
}

// TestBackendRunAgreement runs the same spec on both backends through
// the facade: identical architectural results and elimination counts, with
// the backend label on non-detailed records only.
func TestBackendRunAgreement(t *testing.T) {
	type outcome struct {
		arch uint64
		elim float64
	}
	results := map[string]outcome{}
	for _, be := range []string{"", "functional"} {
		p, err := sim.Load(sim.Spec{Bench: "gzip", Machine: "4w", Config: "RENO", Scale: 0.1, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunContext(context.Background(), sim.Options{MaxInsts: 10000})
		if err != nil {
			t.Fatalf("backend %q: %v", be, err)
		}
		results[be] = outcome{arch: res.ArchHash, elim: res.ElimTotal}

		rec := res.Record()
		label, labeled := rec.Labels["backend"]
		switch {
		case be == "" && labeled:
			t.Error("detailed record carries a backend label; pre-backend byte-compatibility broken")
		case be != "" && label != be:
			t.Errorf("backend %q record labeled %q", be, label)
		}
	}
	det := results[""]
	for be, o := range results {
		if o.arch != det.arch {
			t.Errorf("backend %q architectural hash %016x != detailed %016x", be, o.arch, det.arch)
		}
		if o.elim != det.elim {
			t.Errorf("backend %q elim %.3f != detailed %.3f", be, o.elim, det.elim)
		}
	}
}

// TestGridBackendThreading: the backend field survives ParseGrid, appears
// in the registry listing, and a functional grid is stable across worker
// counts exactly like a detailed one.
func TestGridBackendThreading(t *testing.T) {
	g, err := sim.ParseGrid([]byte(`{
		"version": 2,
		"benches": ["gzip"],
		"machines": ["4w"],
		"renos": ["BASE", "RENO"],
		"scale": 0.1,
		"max_insts": 10000,
		"backend": "functional"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Backend != "functional" {
		t.Fatalf("ParseGrid dropped the backend: %+v", g)
	}

	render := func(workers int) string {
		gr, err := sim.RunGrid(context.Background(), g, sim.GridOptions{Workers: workers, Stable: true})
		if err != nil {
			t.Fatal(err)
		}
		if s := gr.Summary(); s.Failed != 0 || s.Warnings != 0 {
			t.Fatalf("functional sweep unhealthy: %+v", s)
		}
		rep, err := gr.Report()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Error("stable functional sweep differs across worker counts")
	}

	reg := sim.ListRegistered()
	if len(reg.Backends) != 2 {
		t.Fatalf("registry lists %d backends, want 2", len(reg.Backends))
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Backends", "detailed", "functional"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("registry listing lacks %q", want)
		}
	}
}
