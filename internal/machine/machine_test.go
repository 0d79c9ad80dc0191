package machine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"reno/internal/it"
	"reno/internal/pipeline"
	"reno/internal/reno"
)

// TestRenoPresetsRoundTripJSON: Config → JSON → Config is the identity for
// every registered RENO preset — the property that makes inline overrides
// safe (what a spec doesn't mention is exactly what the preset had).
func TestRenoPresetsRoundTripJSON(t *testing.T) {
	for _, d := range Renos() {
		rc, err := RenoByName(d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		data, err := json.Marshal(rc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", d.Name, err)
		}
		var back reno.Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", d.Name, err)
		}
		if !reflect.DeepEqual(rc, back) {
			t.Errorf("%s: round trip changed the config:\n  %+v\n  %+v\n  %s", d.Name, rc, back, data)
		}
	}
}

// TestMachinePresetsRoundTripJSON does the same for every machine preset ×
// RENO preset combination, covering the nested reno object and it_policy
// string encoding.
func TestMachinePresetsRoundTripJSON(t *testing.T) {
	for _, md := range Machines() {
		for _, rd := range Renos() {
			rc, err := RenoByName(rd.Name)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := ParseMachine(md.Name, rc)
			if err != nil {
				t.Fatalf("%s: %v", md.Name, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("preset %s/%s does not validate: %v", md.Name, rd.Name, err)
			}
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", md.Name, rd.Name, err)
			}
			var back pipeline.Config
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", md.Name, rd.Name, err)
			}
			if !reflect.DeepEqual(cfg, back) {
				t.Errorf("%s/%s: round trip changed the config:\n  %+v\n  %+v", md.Name, rd.Name, cfg, back)
			}
		}
	}
}

// TestPolicyJSONNames pins the it_policy wire form.
func TestPolicyJSONNames(t *testing.T) {
	for _, tc := range []struct {
		p    it.Policy
		want string
	}{
		{it.PolicyLoadsOnly, `"loads-only"`},
		{it.PolicyFull, `"full"`},
	} {
		data, err := json.Marshal(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("policy %v marshals to %s, want %s", tc.p, data, tc.want)
		}
	}
	for raw, want := range map[string]it.Policy{
		`"loads-only"`: it.PolicyLoadsOnly,
		`"loads_only"`: it.PolicyLoadsOnly,
		`"full"`:       it.PolicyFull,
		`0`:            it.PolicyLoadsOnly,
		`1`:            it.PolicyFull,
	} {
		var p it.Policy
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			t.Errorf("%s: %v", raw, err)
		} else if p != want {
			t.Errorf("%s decoded to %v, want %v", raw, p, want)
		}
	}
	var p it.Policy
	if err := json.Unmarshal([]byte(`"turbo"`), &p); err == nil {
		t.Error("unknown policy name accepted")
	}
	if err := json.Unmarshal([]byte(`7`), &p); err == nil {
		t.Error("out-of-range policy integer accepted")
	}
}

// TestParseMachineErrors is the table-driven sweep over every DSL error
// path, including the duplicate-modifier conflicts that previously
// resolved last-wins silently.
func TestParseMachineErrors(t *testing.T) {
	rc, _ := RenoByName("RENO")
	for _, tc := range []struct {
		spec string
		frag string // expected error substring
	}{
		{"8w", "unknown base"},
		{"", "unknown base"},
		{"4w:q9", "unknown modifier"},
		{"4w:", "unknown modifier"},
		{"4w:p", "bad register-file modifier"},
		{"4w:p-5", "bad register-file modifier"},
		{"4w:p0", "bad register-file modifier"},
		{"4w:pxyz", "bad register-file modifier"},
		{"4w:i3", "bad issue modifier"},
		{"4w:i0t2", "bad issue modifier"},
		{"4w:i3t1", "bad issue modifier"},
		{"4w:itx", "bad issue modifier"},
		{"4w:s", "bad scheduling-loop modifier"},
		{"4w:s0", "bad scheduling-loop modifier"},
		{"4w:s-1", "bad scheduling-loop modifier"},
		{"4w:p128:p64", "conflicts with earlier"},
		{"4w:p128:p128", "conflicts with earlier"},
		{"4w:i2t3:i3t4", "conflicts with earlier"},
		{"4w:s2:s1", "conflicts with earlier"},
		{"6w:p96:s2:s2", "conflicts with earlier"},
	} {
		_, err := ParseMachine(tc.spec, rc)
		if err == nil {
			t.Errorf("%q parsed without error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%q: error %q does not mention %q", tc.spec, err, tc.frag)
		}
	}
}

// TestParseMachineModifiersCompose: distinct modifier kinds still compose.
func TestParseMachineModifiersCompose(t *testing.T) {
	rc, _ := RenoByName("RENO")
	cfg, err := ParseMachine("4w:p128:i2t3:s2", rc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reno.PhysRegs != 128 || cfg.IntALUs != 2 || cfg.IssueTotal != 3 || cfg.SchedLoop != 2 {
		t.Errorf("modifiers not applied: %+v", cfg)
	}
}

func TestResolveMachineInlineOverride(t *testing.T) {
	rc, _ := RenoByName("RENO")
	raw := []byte(`{"base": "4w", "name": "bigwin", "rob_size": 256, "phys_regs": 224, "iq_size": 64}`)
	cfg, tag, err := ResolveMachine(raw, rc)
	if err != nil {
		t.Fatal(err)
	}
	if tag != "bigwin" || cfg.Name != "bigwin" {
		t.Errorf("tag %q name %q, want bigwin", tag, cfg.Name)
	}
	if cfg.ROBSize != 256 || cfg.Reno.PhysRegs != 224 || cfg.IQSize != 64 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	// Untouched fields keep the 4w base values.
	base := pipeline.FourWide(rc)
	if cfg.FetchWidth != base.FetchWidth || cfg.LQSize != base.LQSize || !cfg.Reno.EnableCF {
		t.Errorf("base fields not preserved: %+v", cfg)
	}
}

func TestResolveMachineNestedRenoWinsOverShorthand(t *testing.T) {
	rc, _ := RenoByName("RENO")
	raw := []byte(`{"base": "4w", "phys_regs": 224, "reno": {"phys_regs": 192, "it_entries": 1024, "it_ways": 4}}`)
	cfg, _, err := ResolveMachine(raw, rc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reno.PhysRegs != 192 {
		t.Errorf("nested reno.phys_regs should win over the shorthand, got %d", cfg.Reno.PhysRegs)
	}
	if cfg.Reno.ITEntries != 1024 || cfg.Reno.ITWays != 4 {
		t.Errorf("nested IT overrides lost: %+v", cfg.Reno)
	}
	if !cfg.Reno.EnableCSERA || !cfg.Reno.EnableCF {
		t.Errorf("RENO base flags lost in nested merge: %+v", cfg.Reno)
	}
}

func TestResolveMachineDSLBase(t *testing.T) {
	rc, _ := RenoByName("BASE")
	cfg, _, err := ResolveMachine([]byte(`{"base": "4w:s2", "rob_size": 192}`), rc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SchedLoop != 2 || cfg.ROBSize != 192 {
		t.Errorf("DSL base + override: %+v", cfg)
	}
}

func TestResolveMachineErrors(t *testing.T) {
	rc, _ := RenoByName("BASE")
	for _, tc := range []struct {
		raw  string
		frag string
	}{
		{`{"rob_size": 256}`, `needs a "base"`},
		{`{"base": "9w"}`, "unknown base"},
		{`{"base": "4w", "rob_sizes": 256}`, "unknown field"},
		{`{"base": "4w", "rob_size": 0}`, "rob_size"},
		{`{"base": "4w", "iq_size": 300}`, "iq_size"},
		{`{"base": "4w", "phys_regs": 8}`, "phys_regs"},
		{`{"base": 4}`, `"base" must be a string`},
		{`{"base": "4w", "max_insts": 1000}`, "execution knob"},
		{`{"base": "4w", "skip_insts": 1000}`, "execution knob"},
		{`42`, "must be a string or an object"},
		{`"4w:p128:p64"`, "conflicts with earlier"},
	} {
		_, _, err := ResolveMachine([]byte(tc.raw), rc)
		if err == nil {
			t.Errorf("%s resolved without error", tc.raw)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.raw, err, tc.frag)
		}
	}
}

func TestResolveMachineStableDefaultTag(t *testing.T) {
	rc, _ := RenoByName("BASE")
	raw := []byte(`{"base": "4w", "rob_size": 256}`)
	_, tag1, err := ResolveMachine(raw, rc)
	if err != nil {
		t.Fatal(err)
	}
	_, tag2, _ := ResolveMachine(raw, rc)
	// Whitespace-only differences must not change the tag.
	_, tag3, _ := ResolveMachine([]byte("{ \"base\": \"4w\",\n  \"rob_size\": 256 }"), rc)
	if tag1 != tag2 || tag1 != tag3 {
		t.Errorf("default tags unstable: %q %q %q", tag1, tag2, tag3)
	}
	if !strings.HasPrefix(tag1, "4w#") {
		t.Errorf("default tag %q does not carry the base prefix", tag1)
	}
	_, other, _ := ResolveMachine([]byte(`{"base": "4w", "rob_size": 192}`), rc)
	if other == tag1 {
		t.Error("different inline specs share a default tag")
	}
}

func TestResolveReno(t *testing.T) {
	rc, tag, err := ResolveReno([]byte(`"RENO"`))
	if err != nil || tag != "RENO" || !rc.EnableCSERA {
		t.Fatalf("name form: %+v %q %v", rc, tag, err)
	}
	rc, tag, err = ResolveReno([]byte(`{"base": "RENO", "name": "RENO-1k", "it_entries": 1024, "it_ways": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if tag != "RENO-1k" || rc.ITEntries != 1024 || rc.ITWays != 4 || !rc.EnableCF {
		t.Errorf("inline reno: %+v %q", rc, tag)
	}
	for _, tc := range []struct {
		raw  string
		frag string
	}{
		{`{"it_entries": 64}`, `needs a "base"`},
		{`{"base": "TURBO"}`, "unknown RENO config"},
		{`{"base": "RENO", "it_entry": 64}`, "unknown field"},
		{`{"base": "RENO", "it_entries": 100, "it_ways": 3}`, "multiple of"},
		{`{"base": "ME+CF", "enable_cse_ra": true, "it_ways": 1}`, "it_ways (1) is set without it_entries"},
		{`{"base": "RENO", "it_policy": "sideways"}`, "policy"},
		{`[1]`, "must be a string or an object"},
	} {
		if _, _, err := ResolveReno([]byte(tc.raw)); err == nil {
			t.Errorf("%s resolved without error", tc.raw)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.raw, err, tc.frag)
		}
	}
}

// TestValidateRules walks the pipeline.Config.Validate rules one violation
// at a time from a known-good preset.
func TestValidateRules(t *testing.T) {
	good := func() pipeline.Config { return pipeline.FourWide(reno.Default(0)) }
	if err := good().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*pipeline.Config)
		frag   string
	}{
		{"zero fetch", func(c *pipeline.Config) { c.FetchWidth = 0 }, "fetch_width"},
		{"negative commit", func(c *pipeline.Config) { c.CommitWidth = -1 }, "commit_width"},
		{"zero rob", func(c *pipeline.Config) { c.ROBSize = 0 }, "rob_size"},
		{"iq over rob", func(c *pipeline.Config) { c.IQSize = c.ROBSize + 1 }, "exceeds rob_size"},
		{"alus over issue", func(c *pipeline.Config) { c.IntALUs = c.IssueTotal + 1 }, "below int_alus"},
		{"zero sched loop", func(c *pipeline.Config) { c.SchedLoop = 0 }, "sched_loop"},
		{"negative redirect", func(c *pipeline.Config) { c.RedirectPenalty = -1 }, "redirect_penalty"},
		{"zero int lat", func(c *pipeline.Config) { c.IntLat = 0 }, "int_lat"},
		{"tiny regfile", func(c *pipeline.Config) { c.Reno.PhysRegs = 16 }, "architectural minimum"},
		{"bad it shape", func(c *pipeline.Config) { c.Reno.ITEntries = 100; c.Reno.ITWays = 3 }, "multiple of it_ways"},
		{"bad policy", func(c *pipeline.Config) { c.Reno.ITPolicy = 9 }, "it_policy"},
	} {
		cfg := good()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestRenoByNameCoversRegistry mirrors the old sweep-level test: every
// registered name resolves, with PhysRegs left to the machine spec.
func TestRenoByNameCoversRegistry(t *testing.T) {
	if len(Renos()) < 7 {
		t.Fatalf("registry lost entries: %v", Renos())
	}
	for _, d := range Renos() {
		rc, err := RenoByName(d.Name)
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if rc.PhysRegs != 0 {
			t.Errorf("%s: PhysRegs %d pre-set; the machine spec owns the register file", d.Name, rc.PhysRegs)
		}
		if d.Desc == "" {
			t.Errorf("%s: no description", d.Name)
		}
	}
	if _, err := RenoByName("TURBO"); err == nil {
		t.Error("unknown RENO name resolved")
	}
}
