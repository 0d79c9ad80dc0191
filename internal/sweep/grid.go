package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"reno/internal/backend"
	"reno/internal/machine"
	"reno/internal/pipeline"
	"reno/internal/workload"
)

// GridVersion is the newest grid schema version this package parses.
// Version 1 (or an absent "version") is the original string-only schema;
// version 2 additionally allows machines and renos entries to be inline
// spec objects resolved through the internal/machine registry.
const GridVersion = 2

// Spec is one machine or RENO axis entry. In JSON it is either a string —
// a registered name, optionally with DSL modifiers for machines
// ("4w:p128") — or, in version-2 grids, an inline spec object with a
// "base" and field-by-field overrides (see docs/machines.md).
type Spec struct {
	// Name is the string form; empty when the spec is an inline object.
	Name string
	// Raw is the inline object form, verbatim; nil for string specs.
	Raw json.RawMessage
}

// Specs wraps plain names as axis entries (the Go-side convenience for
// flag parsing and figure code).
func Specs(names ...string) []Spec {
	out := make([]Spec, len(names))
	for i, n := range names {
		out[i] = Spec{Name: n}
	}
	return out
}

// Inline reports whether the spec is an inline object.
func (s Spec) Inline() bool { return s.Raw != nil }

// raw returns the spec's JSON form, as the machine registry resolves it.
func (s Spec) raw() json.RawMessage {
	if s.Inline() {
		return s.Raw
	}
	b, _ := json.Marshal(s.Name) // a string always marshals
	return b
}

// UnmarshalJSON accepts a JSON string or object.
func (s *Spec) UnmarshalJSON(b []byte) error {
	*s = Spec{} // a reused Spec must not keep a stale Name or Raw
	t := bytes.TrimSpace(b)
	if len(t) == 0 {
		return fmt.Errorf("empty spec")
	}
	switch t[0] {
	case '"':
		return json.Unmarshal(t, &s.Name)
	case '{':
		s.Raw = append(json.RawMessage(nil), t...)
		return nil
	}
	return fmt.Errorf("spec must be a string or an object, got %s", t)
}

// MarshalJSON restores the spec's JSON form.
func (s Spec) MarshalJSON() ([]byte, error) {
	if s.Raw != nil {
		var buf bytes.Buffer
		if err := json.Compact(&buf, s.Raw); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return json.Marshal(s.Name)
}

// Grid is a declarative experiment grid: the cross product of benchmarks,
// machine configurations, RENO configurations, and seeds. Its JSON form is
// the input format of cmd/renosweep (see docs/sweep.md).
//
//reno:config
type Grid struct {
	// Version is the grid schema version: 0 or 1 for the original
	// string-only schema, 2 to allow inline spec objects. ParseGridJSON
	// enforces that inline specs only appear in version-2 grids.
	Version int `json:"version,omitempty"`

	// Benches names workloads: exact benchmark names ("gzip", "gsm.de"),
	// suite aliases ("SPECint"/"spec", "MediaBench"/"media", "all"), or
	// micro kernels ("micro.<kernel>"). Duplicates are dropped.
	Benches []string `json:"benches"`

	// MachineConfigs are machine specs: a registered base name "4w" or
	// "6w" plus optional colon-separated modifiers — "p<N>" (physical
	// registers), "i<A>t<T>" (integer ALUs / total issue), "s<N>"
	// (scheduling loop) — or inline spec objects (version 2). Empty means
	// ["4w"].
	MachineConfigs []Spec `json:"machines"`

	// RenoConfigs are RENO configurations: registered names (see
	// machine.RenoNames) or inline spec objects (version 2). Empty means
	// ["BASE", "RENO"].
	RenoConfigs []Spec `json:"renos"`

	// Seeds are workload seed offsets; empty means [0] (the canonical
	// per-benchmark program). Each non-zero seed generates a distinct but
	// deterministic variant of every benchmark's code.
	Seeds []int64 `json:"seeds,omitempty"`

	// Backend selects the simulation fidelity for every run of the grid:
	// "detailed" (the cycle-level pipeline — the default, and what the
	// empty string means) or "functional" (untimed screening). Both
	// backends produce identical architectural results and elimination
	// counts (see docs/backends.md); functional reports no timing. A
	// version-2 field: pre-backend grids never mention it and keep their
	// meaning.
	Backend string `json:"backend,omitempty"`

	// Scale multiplies workload iteration counts (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// MaxInsts caps timed instructions per run (0 = to completion).
	//lint:ignore confighygiene 0 means run to completion; every uint64 value is a legal cap
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// Workers bounds pool concurrency (0 = runtime.GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// ResolveBenches expands bench names and suite aliases — exact benchmark
// names, "SPECint"/"spec", "MediaBench"/"media", "all", or micro kernels
// ("micro.<kernel>") — into profiles, preserving first-mention order and
// dropping duplicates. It is the benchmark-axis resolver shared by grids
// and the public sim facade.
func ResolveBenches(names []string) ([]workload.Profile, error) {
	var out []workload.Profile
	seen := map[string]bool{}
	add := func(ps ...workload.Profile) {
		for _, p := range ps {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	for _, name := range names {
		switch strings.ToLower(name) {
		case "all":
			add(workload.AllProfiles()...)
		case "spec", "specint":
			add(workload.SPECint()...)
		case "media", "mediabench":
			add(workload.MediaBench()...)
		default:
			if p, ok := workload.ByName(name); ok {
				add(p)
				continue
			}
			if k, ok := kernelByName(strings.TrimPrefix(name, "micro.")); ok && strings.HasPrefix(name, "micro.") {
				add(workload.Micro(k, 20, 20))
				continue
			}
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("grid names no benchmarks")
	}
	return out, nil
}

// kernelByName maps a kernel name ("sweep", "chase", ...) to its kind.
func kernelByName(name string) (workload.KernelKind, bool) {
	for k := workload.KArraySweep; k <= workload.KMemcpy; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Resolve resolves one (machine, RENO) axis pair through the machine
// registry into a validated configuration and the tags results are labeled
// with. It is the one spec resolver of grids and the public sim facade.
func Resolve(m, r Spec) (cfg pipeline.Config, machineTag, renoTag string, err error) {
	rc, renoTag, err := machine.ResolveReno(r.raw())
	if err != nil {
		return pipeline.Config{}, "", "", err
	}
	if cfg, machineTag, err = machine.ResolveMachine(m.raw(), rc); err != nil {
		return pipeline.Config{}, "", "", err
	}
	return cfg, machineTag, renoTag, nil
}

// Expand crosses the grid into one Job per (bench, machine, reno, seed), in
// bench-major order. Machine and RENO lists apply their documented defaults
// when empty; every resolved configuration is validated, so a grid that
// expands cleanly will not fail on a config error mid-sweep.
func (g Grid) Expand() ([]Job, error) {
	benches, err := ResolveBenches(g.Benches)
	if err != nil {
		return nil, err
	}
	machines := g.MachineConfigs
	if len(machines) == 0 {
		machines = Specs("4w")
	}
	renos := g.RenoConfigs
	if len(renos) == 0 {
		renos = Specs("BASE", "RENO")
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	be, err := backend.ParseKind(g.Backend)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}

	// Resolve and validate the config axes once, not once per benchmark.
	type axis struct {
		machine, renoTag string
		cfg              pipeline.Config
	}
	var axes []axis
	seenTags := map[string]bool{}
	for _, m := range machines {
		for _, rn := range renos {
			cfg, machineTag, renoTag, err := Resolve(m, rn)
			if err != nil {
				return nil, err
			}
			// Duplicate tags would make result records indistinguishable
			// (and the figures' bench/tag index silently drop one run), so
			// a repeated axis entry — or an inline "name" shadowing another
			// spec's tag — is an error, not a quiet last-wins.
			if tag := machineTag + "/" + renoTag; seenTags[tag] {
				return nil, fmt.Errorf("grid: duplicate configuration %q (repeated axis entry, or an inline spec \"name\" colliding with another spec's tag)", tag)
			} else {
				seenTags[tag] = true
			}
			axes = append(axes, axis{machineTag, renoTag, cfg})
		}
	}

	jobs := make([]Job, 0, len(benches)*len(axes)*len(seeds))
	for _, b := range benches {
		for _, ax := range axes {
			for _, s := range seeds {
				jobs = append(jobs, Job{Profile: b, Machine: ax.machine, Config: ax.renoTag, Seed: s, Cfg: ax.cfg, Backend: be})
			}
		}
	}
	return jobs, nil
}

// Options derives pool options from the grid's execution knobs.
func (g Grid) Options() Options {
	return Options{Workers: g.Workers, Scale: g.Scale, MaxInsts: g.MaxInsts}
}

// Validate checks the schema-level invariants JSON decoding alone cannot:
// the version is known, the scalar knobs are in range, and inline specs
// only appear at version >= 2. Axis contents are validated by Expand.
func (g Grid) Validate() error {
	if g.Version > GridVersion {
		return fmt.Errorf("grid spec: unsupported version %d (this build understands <= %d)", g.Version, GridVersion)
	}
	if g.Scale < 0 {
		return fmt.Errorf("grid spec: negative scale %v (omit or 0 means 1.0)", g.Scale)
	}
	if g.Workers < 0 {
		return fmt.Errorf("grid spec: negative workers %d (omit or 0 means GOMAXPROCS)", g.Workers)
	}
	if g.Backend != "" {
		if _, err := backend.ParseKind(g.Backend); err != nil {
			return fmt.Errorf("grid spec: %w", err)
		}
		if g.Version < 2 {
			return fmt.Errorf(`grid spec: the backend field requires "version": 2`)
		}
	}
	if g.Version >= 2 {
		return nil
	}
	for _, s := range g.MachineConfigs {
		if s.Inline() {
			return fmt.Errorf(`grid spec: inline machine specs require "version": 2`)
		}
	}
	for _, s := range g.RenoConfigs {
		if s.Inline() {
			return fmt.Errorf(`grid spec: inline reno specs require "version": 2`)
		}
	}
	return nil
}

// ParseGridJSON decodes a Grid from its JSON form, rejecting unknown fields
// so spec typos fail loudly instead of silently defaulting, and enforcing
// the version rules (inline specs are a version-2 feature). An absent
// "version" is normalized to 1 — here, once, so every consumer (the CLI
// path through sim.ParseGrid and the renoserve service) embeds the same
// spec bytes in its results envelope.
func ParseGridJSON(data []byte) (Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("grid spec: %w", err)
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	if g.Version == 0 {
		g.Version = 1
	}
	return g, nil
}
