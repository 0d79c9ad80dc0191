// Package machine is the named-specification registry behind the
// declarative experiment API: it exposes the pipeline presets (4-wide,
// 6-wide) and the paper's named RENO configurations as base specs that
// sweep grids reference by name, extend through the colon-string modifier
// DSL ("4w:p128:s2"), or override field-by-field with inline JSON objects
// (grid schema v2; see docs/machines.md).
//
// Resolution layers, lowest to highest precedence:
//
//  1. the named base preset ("4w", "6w"; "BASE" … "LoadsInteg"),
//  2. DSL modifiers when the base is a spec string ("4w:p128"),
//  3. inline JSON fields, applied field-by-field onto the base
//     (absent fields keep the base's value; unknown fields are rejected).
//
// Every resolved configuration is validated before it is returned, so a
// bad spec fails at parse time with a field-level error, never mid-sweep.
package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"reno/internal/pipeline"
	"reno/internal/reno"
)

// Def is one registry entry: a referenceable name plus a one-line
// description (surfaced by renosweep -list).
type Def struct {
	Name string
	Desc string
}

var machineDefs = []struct {
	Def
	aliases []string
	build   func(reno.Config) pipeline.Config
}{
	{Def{"4w", "the paper's 4-wide baseline: 4-wide fetch/issue/commit, 3 int ALUs, 128-entry ROB, 50-entry IQ, 160 physical registers"},
		[]string{"4"}, pipeline.FourWide},
	{Def{"6w", "the paper's 6-wide machine: 6-wide fetch/issue/commit, 4 int ALUs, 2 FP units, 2 load ports"},
		[]string{"6"}, pipeline.SixWide},
}

var renoDefs = []struct {
	Def
	build func() reno.Config
}{
	{Def{"BASE", "conventional renamer, no elimination (the speedup baseline)"}, func() reno.Config { return reno.Baseline(0) }},
	{Def{"ME", "dynamic move elimination only"}, func() reno.Config { return reno.Config{EnableME: true} }},
	{Def{"ME+CF", "move elimination + dynamic constant folding, no integration table"}, func() reno.Config { return reno.MECF(0) }},
	{Def{"RENO", "the paper's advocated configuration: ME+CF plus a loads-only 512-entry 2-way IT"}, func() reno.Config { return reno.Default(0) }},
	{Def{"RENO+FI", "RENO with a full (all-ops) integration table"}, func() reno.Config { return reno.RENOPlusFullIntegration(0) }},
	{Def{"FullInteg", "classical register integration: all-ops IT, no constant folding"}, func() reno.Config { return reno.FullIntegration(0) }},
	{Def{"LoadsInteg", "loads-only integration without constant folding (Figure 10)"}, func() reno.Config { return reno.LoadsIntegration(0) }},
}

// Machines lists the registered machine base specs in registry order.
func Machines() []Def {
	out := make([]Def, len(machineDefs))
	for i, d := range machineDefs {
		out[i] = d.Def
	}
	return out
}

// Renos lists the registered RENO configurations in canonical order.
func Renos() []Def {
	out := make([]Def, len(renoDefs))
	for i, d := range renoDefs {
		out[i] = d.Def
	}
	return out
}

// RenoNames returns just the registered RENO configuration names.
func RenoNames() []string {
	names := make([]string, len(renoDefs))
	for i, d := range renoDefs {
		names[i] = d.Name
	}
	return names
}

// MachineNames returns just the registered machine base names.
func MachineNames() []string {
	names := make([]string, len(machineDefs))
	for i, d := range machineDefs {
		names[i] = d.Name
	}
	return names
}

// RenoByName returns the named RENO configuration with PhysRegs unset (the
// machine spec supplies the register file size).
func RenoByName(name string) (reno.Config, error) {
	for _, d := range renoDefs {
		if d.Name == name {
			return d.build(), nil
		}
	}
	return reno.Config{}, fmt.Errorf("unknown RENO config %q (known: %s)",
		name, strings.Join(RenoNames(), ", "))
}

// baseByName returns the named machine preset instantiated with rc.
func baseByName(name string, rc reno.Config) (pipeline.Config, bool) {
	for _, d := range machineDefs {
		if d.Name == name {
			return d.build(rc), true
		}
		for _, a := range d.aliases {
			if a == name {
				return d.build(rc), true
			}
		}
	}
	return pipeline.Config{}, false
}

// ParseMachine builds the pipeline configuration for a machine spec string
// — a registered base name plus optional colon-separated modifiers —
// instantiated with the given RENO configuration. It is the compatibility
// surface for v1 grids and the -machines flag: everything it can express is
// a strict subset of the inline-object spec form.
//
// Modifiers: "p<N>" (physical registers), "i<A>t<T>" (integer ALUs / total
// issue width), "s<N>" (scheduling loop). A modifier kind may appear at most
// once: "4w:p128:p64" is a conflict, not a last-one-wins.
func ParseMachine(spec string, rc reno.Config) (pipeline.Config, error) {
	parts := strings.Split(spec, ":")
	cfg, ok := baseByName(parts[0], rc)
	if !ok {
		return pipeline.Config{}, fmt.Errorf("machine %q: unknown base %q (want %s)",
			spec, parts[0], strings.Join(MachineNames(), " or "))
	}
	seen := map[byte]string{}
	taken := func(kind byte, mod string) error {
		if prev, dup := seen[kind]; dup {
			return fmt.Errorf("machine %q: modifier %q conflicts with earlier %q (each modifier kind may appear once)",
				spec, mod, prev)
		}
		seen[kind] = mod
		return nil
	}
	for _, mod := range parts[1:] {
		switch {
		case strings.HasPrefix(mod, "p"):
			n, err := strconv.Atoi(mod[1:])
			if err != nil || n <= 0 {
				return pipeline.Config{}, fmt.Errorf("machine %q: bad register-file modifier %q", spec, mod)
			}
			if err := taken('p', mod); err != nil {
				return pipeline.Config{}, err
			}
			cfg = cfg.WithPhysRegs(n)
		case strings.HasPrefix(mod, "i"):
			var ints, tot int
			if _, err := fmt.Sscanf(mod, "i%dt%d", &ints, &tot); err != nil || ints <= 0 || tot < ints {
				return pipeline.Config{}, fmt.Errorf("machine %q: bad issue modifier %q (want i<A>t<T>)", spec, mod)
			}
			if err := taken('i', mod); err != nil {
				return pipeline.Config{}, err
			}
			cfg = cfg.WithIssue(ints, tot)
		case strings.HasPrefix(mod, "s"):
			n, err := strconv.Atoi(mod[1:])
			if err != nil || n <= 0 {
				return pipeline.Config{}, fmt.Errorf("machine %q: bad scheduling-loop modifier %q", spec, mod)
			}
			if err := taken('s', mod); err != nil {
				return pipeline.Config{}, err
			}
			cfg = cfg.WithSchedLoop(n)
		default:
			return pipeline.Config{}, fmt.Errorf("machine %q: unknown modifier %q", spec, mod)
		}
	}
	return cfg, nil
}

// specFields decodes an inline spec object shallowly and pulls out the
// resolution-control keys, returning the remaining override fields.
func specFields(raw json.RawMessage, kind string) (fields map[string]json.RawMessage, base, name string, err error) {
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, "", "", fmt.Errorf("inline %s spec: %w", kind, err)
	}
	if b, ok := fields["base"]; ok {
		if err := json.Unmarshal(b, &base); err != nil {
			return nil, "", "", fmt.Errorf("inline %s spec: \"base\" must be a string: %w", kind, err)
		}
		delete(fields, "base")
	}
	if n, ok := fields["name"]; ok {
		if err := json.Unmarshal(n, &name); err != nil {
			return nil, "", "", fmt.Errorf("inline %s spec: \"name\" must be a string: %w", kind, err)
		}
		delete(fields, "name")
	}
	return fields, base, name, nil
}

// overlay applies the remaining override fields of an inline spec onto dst
// (a *pipeline.Config or *reno.Config), rejecting unknown fields so spec
// typos fail loudly. json.Unmarshal into a populated struct is exactly
// field-by-field override: absent fields keep their base values, and nested
// objects (e.g. "reno") merge rather than replace.
func overlay(fields map[string]json.RawMessage, dst any, kind string) error {
	if len(fields) == 0 {
		return nil
	}
	rest, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("inline %s spec: %w", kind, err)
	}
	return nil
}

// specTag derives the result tag for an inline spec without an explicit
// "name": the base name plus a short stable hash of the spec's compacted
// JSON, so the same spec always tags identically and two different inline
// specs never collide silently.
func specTag(base string, raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		buf.Reset()
		buf.Write(raw)
	}
	h := fnv.New32a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%s#%08x", base, h.Sum32())
}

// ResolveMachine resolves a machine spec — either a JSON string (a
// registered name or DSL spec, e.g. "4w:p128") or an inline object with a
// required "base" and field-by-field overrides — into a validated
// pipeline.Config plus the tag results are labeled with. rc supplies the
// RENO configuration the machine is instantiated with, exactly as in
// ParseMachine.
//
// Inline objects accept every pipeline.Config JSON field, a nested "reno"
// object, and two conveniences: "name" (the result tag, also stored as the
// config's Name) and top-level "phys_regs" (shorthand for the single most
// swept RENO field). A nested "reno" override wins over the shorthand.
func ResolveMachine(raw json.RawMessage, rc reno.Config) (pipeline.Config, string, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var spec string
		if err := json.Unmarshal(trimmed, &spec); err != nil {
			return pipeline.Config{}, "", fmt.Errorf("machine spec: %w", err)
		}
		cfg, err := ParseMachine(spec, rc)
		if err != nil {
			return pipeline.Config{}, "", err
		}
		if err := cfg.Validate(); err != nil {
			return pipeline.Config{}, "", fmt.Errorf("machine %q: %w", spec, err)
		}
		return cfg, spec, nil
	}
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return pipeline.Config{}, "", fmt.Errorf("machine spec must be a string or an object, got %s", trimmed)
	}

	fields, base, name, err := specFields(trimmed, "machine")
	if err != nil {
		return pipeline.Config{}, "", err
	}
	if base == "" {
		return pipeline.Config{}, "", fmt.Errorf("inline machine spec needs a \"base\" (one of: %s, optionally with DSL modifiers)",
			strings.Join(MachineNames(), ", "))
	}
	cfg, err := ParseMachine(base, rc)
	if err != nil {
		return pipeline.Config{}, "", err
	}
	// Execution knobs are owned by the sweep (the grid's max_insts; warmup
	// comes from the workload), not by the machine. Say where the budget
	// belongs rather than report an unknown field.
	for _, k := range []string{"max_insts", "skip_insts"} {
		if _, ok := fields[k]; ok {
			return pipeline.Config{}, "", fmt.Errorf("inline machine spec: %q is a per-run execution knob, not a machine property; set the grid's max_insts instead", k)
		}
	}
	if pr, ok := fields["phys_regs"]; ok {
		if err := json.Unmarshal(pr, &cfg.Reno.PhysRegs); err != nil {
			return pipeline.Config{}, "", fmt.Errorf("inline machine spec: \"phys_regs\": %w", err)
		}
		delete(fields, "phys_regs")
	}
	if err := overlay(fields, &cfg, "machine"); err != nil {
		return pipeline.Config{}, "", err
	}
	tag := name
	if tag == "" {
		tag = specTag(base, trimmed)
	}
	cfg.Name = tag
	if err := cfg.Validate(); err != nil {
		return pipeline.Config{}, "", fmt.Errorf("machine %q: %w", tag, err)
	}
	return cfg, tag, nil
}

// ResolveReno resolves a RENO spec — a JSON string naming a registered
// configuration, or an inline object with a required "base" name and
// field-by-field reno.Config overrides — into the configuration plus its
// result tag. PhysRegs is left to the machine spec unless the inline object
// overrides it explicitly.
func ResolveReno(raw json.RawMessage) (reno.Config, string, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var name string
		if err := json.Unmarshal(trimmed, &name); err != nil {
			return reno.Config{}, "", fmt.Errorf("reno spec: %w", err)
		}
		rc, err := RenoByName(name)
		if err != nil {
			return reno.Config{}, "", err
		}
		return rc, name, nil
	}
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return reno.Config{}, "", fmt.Errorf("reno spec must be a string or an object, got %s", trimmed)
	}

	fields, base, name, err := specFields(trimmed, "reno")
	if err != nil {
		return reno.Config{}, "", err
	}
	if base == "" {
		return reno.Config{}, "", fmt.Errorf("inline reno spec needs a \"base\" (one of: %s)",
			strings.Join(RenoNames(), ", "))
	}
	rc, err := RenoByName(base)
	if err != nil {
		return reno.Config{}, "", err
	}
	if err := overlay(fields, &rc, "reno"); err != nil {
		return reno.Config{}, "", err
	}
	tag := name
	if tag == "" {
		tag = specTag(base, trimmed)
	}
	if err := rc.Validate(); err != nil {
		return reno.Config{}, "", fmt.Errorf("reno %q: %w", tag, err)
	}
	return rc, tag, nil
}
