package sweep

import (
	"bytes"
	"strings"
	"testing"

	"reno/internal/backend"
)

// TestBackendName pins the convention the whole backend feature rests on:
// "detailed" and "" both parse to the detailed backend, whose record form
// is "", so a detailed job's key, result hash, store record, and emitted
// bytes are all identical to their pre-backend forms.
func TestBackendName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"detailed", ""},
		{"functional", "functional"},
	}
	for _, c := range cases {
		k, err := backend.ParseKind(c.in)
		if err != nil {
			t.Errorf("ParseKind(%q): %v", c.in, err)
		} else if got := backendName(k); got != c.want {
			t.Errorf("backendName(ParseKind(%q)) = %q, want %q", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"fast", "approx"} {
		if _, err := backend.ParseKind(bad); err == nil {
			t.Errorf("unknown backend %q parsed without error", bad)
		} else if !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "detailed, functional") {
			t.Errorf("error %q does not name the bad backend and list the known ones", err)
		}
	}
}

// TestGridBackendField: the backend field is validated at parse time with a
// field-level error, demands schema version 2, and parses through Expand
// ("detailed" and absent both land as the detailed default).
func TestGridBackendField(t *testing.T) {
	for _, bad := range []string{"fast", "approx"} {
		spec := `{"version": 2, "benches": ["gzip"], "backend": "` + bad + `"}`
		if _, err := ParseGridJSON([]byte(spec)); err == nil {
			t.Errorf("unknown backend %q accepted", bad)
		} else if !strings.Contains(err.Error(), "backend") || !strings.Contains(err.Error(), bad) ||
			!strings.Contains(err.Error(), "detailed, functional") {
			t.Errorf("unhelpful backend error: %v", err)
		}
	}

	v1 := `{"benches": ["gzip"], "backend": "functional"}`
	if _, err := ParseGridJSON([]byte(v1)); err == nil {
		t.Error("backend field accepted without version 2")
	} else if !strings.Contains(err.Error(), `"version": 2`) {
		t.Errorf("unhelpful version error: %v", err)
	}

	for spec, want := range map[string]backend.Kind{
		`{"version": 2, "benches": ["gzip"], "backend": "detailed"}`:   backend.Detailed,
		`{"version": 2, "benches": ["gzip"], "backend": "functional"}`: backend.Functional,
	} {
		g, err := ParseGridJSON([]byte(spec))
		if err != nil {
			t.Fatalf("valid grid rejected: %v", err)
		}
		jobs, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.Backend != want {
				t.Errorf("backend %q expanded to job backend %q, want %q", g.Backend, j.Backend, want)
			}
		}
	}
}

// TestJobKeyBackendIsolation is the cache-isolation regression: runs of the
// same cell at different fidelities must never share a run key (a
// functional result served as detailed truth would be silently wrong
// timing), while the detailed key stays byte-identical to its pre-backend
// legacy form so every existing cache entry and store record stays valid.
func TestJobKeyBackendIsolation(t *testing.T) {
	jobs := cacheGrid(t)
	opts := Options{Scale: 0.3, MaxInsts: 20000}

	legacy := jobs[0] // Backend Detailed — the pre-backend key shape
	keys := map[string]string{"": legacy.Key(opts)}
	fn := jobs[0]
	fn.Backend = backend.Functional
	keys["functional"] = fn.Key(opts)
	if keys["functional"] == keys[""] {
		t.Errorf("backend does not isolate run keys: %v", keys)
	}

	// "detailed" parses to the zero Kind before it ever reaches a Job, so
	// the detailed key IS the legacy key.
	kind, err := backend.ParseKind("detailed")
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	j.Backend = kind
	if got := j.Key(opts); got != keys[""] {
		t.Errorf("detailed key %s != legacy key %s", got, keys[""])
	}
}

// TestHashCoversBackend: the result hash must split on the backend (same
// architectural outcome at different fidelities is a different record) and
// a detailed result must hash identically to its pre-backend form.
func TestHashCoversBackend(t *testing.T) {
	base := &Result{Bench: "b", Machine: "4w", Config: "RENO",
		Cycles: 100, Insts: 200, IPC: 2, ArchHash: "00ff"}
	h0 := hashResult(base)
	r := *base
	r.Backend = "functional"
	if hashResult(&r) == h0 {
		t.Error("backend did not change the result hash")
	}
}

// TestBackendStableEmission: every backend honors the -stable contract —
// byte-identical JSON and CSV whatever the pool width — and the two
// backends agree on elimination counts for the same grid while their run
// keys and hashes stay distinct.
func TestBackendStableEmission(t *testing.T) {
	render := func(g Grid, rs []*Result) string {
		var j bytes.Buffer
		if err := NewReport(g, rs).WriteJSON(&j, EmitOptions{Deterministic: true}); err != nil {
			t.Fatal(err)
		}
		var c bytes.Buffer
		if err := NewReport(g, rs).WriteCSV(&c, EmitOptions{Deterministic: true}); err != nil {
			t.Fatal(err)
		}
		return j.String() + "\n---\n" + c.String()
	}

	byBackend := map[string][]*Result{}
	for _, be := range []string{"", "functional"} {
		g := Grid{
			Version:        GridVersion,
			Benches:        []string{"gzip"},
			MachineConfigs: Specs("4w"),
			RenoConfigs:    Specs("BASE", "RENO"),
			Scale:          0.1,
			MaxInsts:       10_000,
			Backend:        be,
		}
		serial := runGrid(t, g, 1)
		wide := runGrid(t, g, 4)
		ga, gb := g, g
		ga.Workers, gb.Workers = 1, 4
		if a, b := render(ga, serial), render(gb, wide); a != b {
			t.Errorf("backend %q: stable emission differs across worker counts", be)
		}
		byBackend[be] = serial
	}

	det, fn := byBackend[""], byBackend["functional"]
	for i := range det {
		if det[i].ElimTotal != fn[i].ElimTotal {
			t.Errorf("%s: elimination diverges across backends (detailed %.3f functional %.3f)",
				det[i].Key(), det[i].ElimTotal, fn[i].ElimTotal)
		}
		if det[i].ArchHash != fn[i].ArchHash {
			t.Errorf("%s: architectural hash diverges across backends", det[i].Key())
		}
		if det[i].Hash == fn[i].Hash {
			t.Errorf("%s: run hash collides across backends", det[i].Key())
		}
	}
}

// TestResultCodecBackendRoundTrip: a non-detailed record carries its
// backend through the persistent codec, and a detailed record encodes to
// bytes with no backend key at all — pre-backend store records and new
// detailed records are the same format.
func TestResultCodecBackendRoundTrip(t *testing.T) {
	g := Grid{
		Version:        GridVersion,
		Benches:        []string{"gzip"},
		MachineConfigs: Specs("4w"),
		RenoConfigs:    Specs("RENO"),
		Scale:          0.1,
		MaxInsts:       10_000,
		Backend:        "functional",
	}
	results := runGrid(t, g, 1)
	data, err := EncodeResult("00ff", results[0])
	if err != nil {
		t.Fatal(err)
	}
	_, back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Backend != "functional" {
		t.Errorf("decoded backend %q, want functional", back.Backend)
	}

	g.Backend = ""
	detailed := runGrid(t, g, 1)
	data, err = EncodeResult("00ff", detailed[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `\"backend\"`) || strings.Contains(string(data), `"backend"`) {
		t.Error("detailed record encodes a backend key; pre-backend byte-compatibility broken")
	}
}
