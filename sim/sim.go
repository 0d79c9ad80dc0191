// Package sim is the public embedding API of the RENO simulator: resolve a
// declarative Spec through the machine registry, Load it into a runnable
// Program, and Run it (optionally under a context) to obtain a Result
// expressed in the unified reno/metrics model.
// Grids of runs execute on the bounded sweep worker pool through RunGrid.
//
// A minimal embedding:
//
//	p, err := sim.Load(sim.Spec{Bench: "gzip", Machine: "4w", Config: "RENO"})
//	if err != nil { ... }
//	res, err := p.Run(sim.Options{MaxInsts: 300_000})
//	if err != nil { ... }
//	fmt.Println(res.IPC)
//	res.Report().Encode(os.Stdout) // the versioned reno.metrics/v1 envelope
//
// Machine and Config accept registered names ("4w", "RENO"; see Machines
// and Configs), the registry's colon-modifier DSL ("4w:p128:s2"), or inline
// JSON spec objects ({"base":"4w","rob_size":256}) — the same three forms
// sweep grids use, resolved by the same code, so anything expressible in an
// experiment file is expressible in an embedding and vice versa. The
// command-line tools renosim, renosweep, and renobench are thin flag
// parsers over this package; docs/metrics.md specifies the result schema.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"reno/internal/asm"
	"reno/internal/backend"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/machine"
	"reno/internal/pipeline"
	"reno/internal/sweep"
	"reno/internal/workload"
	"reno/metrics"
)

// Spec declares one simulation: which workload, on which machine, under
// which RENO configuration. The zero values of Machine, Config, and Scale
// mean "4w", "RENO", and 1.0. Spec is JSON-serializable, so embeddings can
// store and replay experiment definitions.
type Spec struct {
	// Bench is a benchmark profile name ("gzip", "gsm.de", see Benchmarks)
	// or a micro kernel ("micro.chase").
	Bench string `json:"bench"`
	// Machine is a machine spec: a registered base ("4w", "6w"), the
	// colon-modifier DSL ("4w:p128:i2t3:s2"), or an inline JSON object
	// with a "base" and field-by-field overrides.
	Machine string `json:"machine,omitempty"`
	// Config is a RENO configuration: a registered name (see Configs) or
	// an inline JSON object with a "base" and overrides.
	Config string `json:"config,omitempty"`
	// Seed is the workload seed offset (0 = the canonical program; other
	// values generate distinct but deterministic variants).
	Seed int64 `json:"seed,omitempty"`
	// Scale multiplies the workload's iteration count (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Backend selects the simulation fidelity: "detailed" (the cycle-level
	// pipeline — the default, and what the empty string means) or
	// "functional" (untimed screening). Both backends produce identical
	// architectural results and elimination counts for the same spec (see
	// docs/backends.md); functional reports no cycles or IPC. Stored
	// pre-backend specs keep their meaning.
	Backend string `json:"backend,omitempty"`
}

// withDefaults fills the documented zero-value defaults.
func (s Spec) withDefaults() Spec {
	if s.Machine == "" {
		s.Machine = "4w"
	}
	if s.Config == "" {
		s.Config = "RENO"
	}
	if s.Scale <= 0 {
		s.Scale = 1.0
	}
	return s
}

// axisSpec reads a Machine or Config field as a sweep axis entry: an inline
// spec object when it starts with "{", a name or DSL spec otherwise.
func axisSpec(s string) sweep.Spec {
	if strings.HasPrefix(strings.TrimSpace(s), "{") {
		return sweep.Spec{Raw: json.RawMessage(s)}
	}
	return sweep.Spec{Name: s}
}

// resolve resolves spec's machine, RENO and backend axes, as grids do, into
// a Program that has no code yet.
func resolve(spec Spec) (*Program, error) {
	cfg, machineTag, configTag, err := sweep.Resolve(axisSpec(spec.Machine), axisSpec(spec.Config))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	kind, err := backend.ParseKind(spec.Backend)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Program{spec: spec, cfg: cfg, machineTag: machineTag, configTag: configTag, backend: kind}, nil
}

// Program is a loaded, resolved, runnable simulation: assembled workload
// code, its post-warmup state, a validated machine configuration and the
// backend Spec.Backend names, parsed once when the spec resolves. A Program
// is immutable and reusable; each Run simulates its timed region from
// scratch.
type Program struct {
	spec       Spec
	suite      string // benchmark suite (labels + run-key identity)
	cfg        pipeline.Config
	machineTag string
	configTag  string
	backend    backend.Kind  // parsed once from Spec.Backend (run-key identity)
	code       []isa.Inst    // LoadAsm's program (its run-key identity)
	start      *emu.Snapshot // post-warmup state every Run starts a copy of
}

// Load resolves a Spec into a Program: the benchmark is generated and
// assembled at the requested seed and scale and run through its functional
// warmup (sweep.Start, as a sweep does), and the machine and RENO specs
// resolve through the registry with full validation, so a bad spec fails
// here with a field-level error, never mid-run.
func Load(spec Spec) (*Program, error) {
	spec = spec.withDefaults()
	if spec.Bench == "" {
		return nil, fmt.Errorf("sim: spec needs a Bench (see sim.Benchmarks)")
	}
	profs, err := sweep.ResolveBenches([]string{spec.Bench})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(profs) != 1 {
		return nil, fmt.Errorf("sim: %q names %d benchmarks; Load wants exactly one (use RunGrid for suites)", spec.Bench, len(profs))
	}
	p, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow Load takes no context: the warmup it runs is bounded by the workload's warmup limit
	if p.start, err = sweep.Start(context.Background(), profs[0], spec.Seed, spec.Scale); err != nil {
		return nil, fmt.Errorf("sim: start %s: %w", spec.Bench, err)
	}
	p.suite = profs[0].Suite
	return p, nil
}

// LoadAsm assembles source text instead of generating a benchmark; the
// spec's Bench, Seed, and Scale fields are ignored (assembly programs are
// taken verbatim and get no functional warmup).
func LoadAsm(source string, spec Spec) (*Program, error) {
	spec = spec.withDefaults()
	spec.Bench, spec.Seed, spec.Scale = "", 0, 0
	p, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	p.code, p.start = prog.Code, emu.New(prog.Code).Freeze()
	return p, nil
}

// Spec returns the (defaulted) spec the program was loaded from.
func (p *Program) Spec() Spec { return p.spec }

// Tag returns the program's configuration-axis tag, "machine/config" with
// "@s<seed>" appended for non-zero seeds — the same tag sweep results use.
func (p *Program) Tag() string {
	return sweep.Job{Machine: p.machineTag, Config: p.configTag, Seed: p.spec.Seed}.Tag()
}

// Backend returns the canonical name of the simulation backend the program
// runs on ("detailed" for specs that never mentioned one).
func (p *Program) Backend() string { return p.backend.String() }

// RunKey returns the run's stable cache identity under opts: an FNV-1a 64
// hash (rendered %016x) over everything that determines the run's
// deterministic outcome — the workload identity (bench, seed, scale), the
// instruction budget (MaxInsts), CPA attachment (which adds cpa.* metrics
// to the result), the backend, and the fully resolved machine
// configuration. Two programs with equal keys produce byte-identical stable
// result records, so the key addresses result caches: with zero CPAChunk it
// is exactly the key the renoserve daemon caches grid cells under, and
// sweep progress callbacks surface per run as Progress.RunKey. Assembly
// programs (LoadAsm) have no generating spec, so their assembled code is
// hashed in place of a benchmark name. Unlike the per-run result hash,
// RunKey is known before the run executes.
//
//lint:ignore ctxflow RunKey derives the cache key and executes nothing; there is no work to cancel
func (p *Program) RunKey(opts Options) string {
	bench := p.spec.Bench
	if bench == "" {
		// LoadAsm: identify the program by its code, not a (missing) name.
		h := fnv.New64a()
		for _, inst := range p.code {
			h.Write([]byte(inst.String()))
			h.Write([]byte{'\n'})
		}
		bench = fmt.Sprintf("asm:%016x", h.Sum64())
	}
	j := sweep.Job{
		Profile: workload.Profile{Name: bench, Suite: p.suite},
		Machine: p.machineTag,
		Config:  p.configTag,
		Seed:    p.spec.Seed,
		Cfg:     p.cfg,
		Backend: p.backend,
	}
	key := j.Key(sweep.Options{Scale: p.spec.Scale, MaxInsts: opts.MaxInsts})
	if opts.CPAChunk != 0 {
		// Fold in the option grids cannot express, leaving the common
		// (zero) case byte-identical to the grid-cell key. The "mc=0"
		// field is a retired cycle budget, kept so keys stay unchanged.
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|mc=0|cpa=%d", key, opts.CPAChunk)
		key = fmt.Sprintf("%016x", h.Sum64())
	}
	return key
}

// Machine summarizes the resolved machine configuration.
func (p *Program) Machine() MachineInfo {
	return MachineInfo{
		Name:      p.cfg.Name,
		Tag:       p.machineTag,
		PhysRegs:  p.cfg.Reno.PhysRegs,
		IQSize:    p.cfg.IQSize,
		ROBSize:   p.cfg.ROBSize,
		SchedLoop: p.cfg.SchedLoop,
	}
}

// MachineInfo is display metadata about a resolved machine configuration.
type MachineInfo struct {
	Name      string // preset display name, e.g. "4-wide"
	Tag       string // registry tag, e.g. "4w:p128"
	PhysRegs  int    // physical register file size
	IQSize    int    // issue queue entries
	ROBSize   int    // reorder buffer entries
	SchedLoop int    // wakeup-select loop latency
}

// Options bounds and instruments one run. The zero value runs to
// completion without analysis.
type Options struct {
	// MaxInsts stops timing after this many committed instructions
	// (0 = run until the program halts).
	MaxInsts uint64
	// CPAChunk attaches the critical-path analyzer with this chunk size
	// (0 = off); the result then carries the cpa.* metrics. The analysis
	// reads the cycles only the detailed backend models, so a functional
	// program's Run refuses it with an error.
	CPAChunk int
}

// Result is one completed (or canceled) simulation in the unified result
// model: headline fields inline, everything else in Metrics.
type Result struct {
	Spec Spec   // the program's spec
	Tag  string // the program's configuration tag

	machineTag string // resolved tag halves (labels; Tag joins them)
	configTag  string
	backend    backend.Kind // the program's backend (labels)

	// StopReason records why the simulation ended: "" (program drained),
	// "max-insts", or "canceled" (partial result).
	StopReason string

	Cycles uint64
	Insts  uint64
	IPC    float64

	// ElimTotal is the eliminated share of committed instructions in
	// percent (the paper's headline number).
	ElimTotal float64

	// ArchHash is the final architectural state hash — the witness that
	// RENO configurations are software-invisible: every configuration of
	// the same program must reach the same hash.
	ArchHash uint64

	set *metrics.Set
}

// Metrics returns the full result as a metric set under the stable
// reno.metrics/v1 names. The set is computed once and cached.
func (r *Result) Metrics() *metrics.Set { return r.set }

// Record wraps the result as one envelope record: identity labels
// (bench/machine/config/seed), evidence attrs (arch_hash, stop_reason), and
// the metric set.
func (r *Result) Record() metrics.Record {
	labels := map[string]string{
		metrics.LabelMachine: r.machineTag,
		metrics.LabelConfig:  r.configTag,
	}
	if r.Spec.Bench != "" {
		labels[metrics.LabelBench] = r.Spec.Bench
	}
	if r.Spec.Seed != 0 {
		labels[metrics.LabelSeed] = strconv.FormatInt(r.Spec.Seed, 10)
	}
	if r.backend != backend.Detailed {
		labels[metrics.LabelBackend] = r.backend.String()
	}
	attrs := map[string]string{
		metrics.AttrArchHash: fmt.Sprintf("%016x", r.ArchHash),
	}
	if r.StopReason != "" {
		attrs[metrics.AttrStopReason] = r.StopReason
	}
	return metrics.Record{Labels: labels, Attrs: attrs, Metrics: r.set}
}

// Report wraps the result as a complete single-record v1 envelope.
func (r *Result) Report() *metrics.Report {
	rep := metrics.NewReport("sim")
	rep.Add(r.Record())
	return rep
}

// Run simulates the program to completion (or opts' bounds) and returns its
// result. It is RunContext without cancellation.
func (p *Program) Run(opts Options) (*Result, error) {
	return p.RunContext(context.Background(), opts)
}

// RunContext simulates under a context. Load already ran the program's
// functional warmup, so ctx bounds only the timed region. On cancellation
// it returns the partial Result accumulated so far (StopReason "canceled")
// together with ctx's error — callers always get the statistics the cycles
// they paid for produced. All other stops return a nil error.
func (p *Program) RunContext(ctx context.Context, opts Options) (*Result, error) {
	bres, err := backend.For(p.backend).Run(ctx, backend.Request{
		Cfg: p.cfg, Start: p.start, MaxInsts: opts.MaxInsts, CPAChunk: opts.CPAChunk,
	})
	if bres == nil || bres.Pipe == nil {
		return nil, fmt.Errorf("sim %s: %w", p.Tag(), err)
	}
	res := bres.Pipe
	out := &Result{
		Spec:       p.spec,
		Tag:        p.Tag(),
		machineTag: p.machineTag,
		configTag:  p.configTag,
		backend:    p.backend,
		StopReason: res.StopReason,
		Cycles:     res.Cycles,
		Insts:      res.Insts,
		IPC:        res.IPC,
		ElimTotal:  res.ElimTotal,
		ArchHash:   bres.ArchHash,
		set:        res.Metrics(),
	}
	return out, err
}

// Info is one registry entry: a referenceable name plus a one-line
// description. It is JSON-serializable so discovery listings (renoserve's
// /v1/registry endpoint) can serve it directly.
type Info struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// Benchmarks lists the built-in benchmark profiles (the Bench axis of a
// Spec), described by their suite.
func Benchmarks() []Info {
	profs := workload.AllProfiles()
	out := make([]Info, len(profs))
	for i, p := range profs {
		out[i] = Info{Name: p.Name, Desc: p.Suite}
	}
	return out
}

// Machines lists the registered machine base specs (the Machine axis),
// extensible with the colon-modifier DSL or inline JSON objects.
func Machines() []Info {
	defs := machine.Machines()
	out := make([]Info, len(defs))
	for i, d := range defs {
		out[i] = Info{Name: d.Name, Desc: d.Desc}
	}
	return out
}

// Configs lists the registered RENO configurations (the Config axis).
func Configs() []Info {
	defs := machine.Renos()
	out := make([]Info, len(defs))
	for i, d := range defs {
		out[i] = Info{Name: d.Name, Desc: d.Desc}
	}
	return out
}

// Backends lists the simulation backends selectable through Spec.Backend
// or a grid's backend field. Every backend produces identical architectural
// results and elimination counts; timing fidelity and speed trade off.
func Backends() []Info {
	return []Info{
		{Name: "detailed", Desc: "cycle-accurate pipeline model (default; exact timing)"},
		{Name: "functional", Desc: "architectural emulation only (exact elimination, no timing)"},
	}
}
