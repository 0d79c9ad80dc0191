package sim

import (
	"context"
	"io"
	"strings"
	"time"

	"reno/internal/sweep"
	"reno/metrics"
)

// Grid declares a sweep: the cross product of benchmarks, machine specs,
// RENO configurations, and seeds, executed on the bounded worker pool by
// RunGrid. Axis entries accept the same three forms as a Spec — registered
// names, the colon-modifier DSL, and inline JSON spec objects. A grid may
// also be parsed from the renosweep JSON schema with ParseGrid.
type Grid struct {
	// Benches names workloads: exact benchmark names, suite aliases
	// ("all", "SPECint", "MediaBench"), or micro kernels
	// ("micro.<kernel>").
	Benches []string
	// Machines are machine specs; empty means ["4w"].
	Machines []string
	// Configs are RENO configurations; empty means ["BASE", "RENO"].
	Configs []string
	// Seeds are workload seed offsets; empty means [0].
	Seeds []int64
	// Scale multiplies workload iteration counts (0 = 1.0).
	Scale float64
	// MaxInsts caps timed instructions per run (0 = to completion).
	MaxInsts uint64
	// Backend selects the simulation backend for every run: "detailed"
	// (default; also selected by "") or "functional". Both backends
	// produce identical architectural results and elimination counts;
	// functional reports no timing (see docs/backends.md). In the JSON
	// schema the field requires "version": 2.
	Backend string

	// version/workers carry a parsed file's schema version and worker
	// setting; the exported fields above stay the single source of truth
	// (mutating them after ParseGrid works as expected).
	version int
	workers int
}

// ParseGrid decodes a grid from the renosweep JSON schema (docs/sweep.md),
// enforcing its version rules — inline spec objects require "version": 2 —
// and rejecting unknown fields. The decoded axes land in the exported
// fields (inline spec objects as their compact JSON text) and may be
// modified before running.
func ParseGrid(data []byte) (*Grid, error) {
	sg, err := sweep.ParseGridJSON(data)
	if err != nil {
		return nil, err
	}
	return &Grid{
		Benches:  sg.Benches,
		Machines: specStrings(sg.MachineConfigs),
		Configs:  specStrings(sg.RenoConfigs),
		Seeds:    sg.Seeds,
		Scale:    sg.Scale,
		MaxInsts: sg.MaxInsts,
		Backend:  sg.Backend,
		// ParseGridJSON normalizes an absent file version to schema v1, so
		// Plan reports what the file meant, not the constructed-grid
		// default.
		version: sg.Version,
		workers: sg.Workers,
	}, nil
}

// specs wraps axis strings as sweep entries, treating "{"-prefixed entries
// as inline spec objects.
func specs(entries []string) []sweep.Spec {
	out := make([]sweep.Spec, len(entries))
	for i, e := range entries {
		if strings.HasPrefix(strings.TrimSpace(e), "{") {
			out[i].Raw = []byte(e)
		} else {
			out[i].Name = e
		}
	}
	return out
}

// specStrings is the inverse of specs, for surfacing parsed axes.
func specStrings(entries []sweep.Spec) []string {
	out := make([]string, len(entries))
	for i, s := range entries {
		if s.Inline() {
			if b, err := s.MarshalJSON(); err == nil {
				out[i] = string(b)
			} else {
				out[i] = string(s.Raw)
			}
		} else {
			out[i] = s.Name
		}
	}
	return out
}

// toSweep lowers the grid to its internal form.
func (g *Grid) toSweep() sweep.Grid {
	version := g.version
	if version == 0 {
		version = sweep.GridVersion
	}
	if g.Backend != "" && version < 2 {
		// The "backend requires version 2" rule is a JSON-schema rule,
		// enforced when a file is parsed. Setting Backend programmatically
		// on a grid parsed from a v1 file (e.g. a CLI flag override) is
		// fine — lower at the version that supports it.
		version = 2
	}
	return sweep.Grid{
		Version:        version,
		Benches:        g.Benches,
		MachineConfigs: specs(g.Machines),
		RenoConfigs:    specs(g.Configs),
		Seeds:          g.Seeds,
		Scale:          g.Scale,
		MaxInsts:       g.MaxInsts,
		Backend:        g.Backend,
		Workers:        g.workers,
	}
}

// GridPlan describes what a grid will run, without running it.
type GridPlan struct {
	// Version is the grid schema version (1 for string-only grids, 2 when
	// inline spec objects are allowed).
	Version int
	// Jobs is the total run count (benches × configurations × seeds).
	Jobs int
	// Configurations are the distinct configuration-axis tags, in
	// expansion order.
	Configurations []string
}

// Plan expands and validates the grid, reporting its job count and
// configuration tags. A grid that plans cleanly will not fail on a spec
// error mid-sweep.
func (g *Grid) Plan() (*GridPlan, error) {
	sg := g.toSweep()
	jobs, err := sg.Expand()
	if err != nil {
		return nil, err
	}
	version := sg.Version
	if version == 0 {
		version = 1
	}
	plan := &GridPlan{Version: version, Jobs: len(jobs)}
	seen := map[string]bool{}
	for _, j := range jobs {
		if t := j.Tag(); !seen[t] {
			seen[t] = true
			plan.Configurations = append(plan.Configurations, t)
		}
	}
	return plan, nil
}

// Progress is one per-run completion notice delivered to a GridOptions
// Progress callback, serialized by the pool.
type Progress struct {
	Done  int // completed runs including this one
	Total int
	Bench string
	Tag   string // configuration tag ("machine/config[@s<seed>]")

	IPC       float64
	ElimTotal float64
	RunHash   string
	// RunKey is the run's stable cache identity — a hash over the inputs
	// that determine its deterministic outcome, the single-run counterpart
	// of Program.RunKey. Unlike RunHash (which hashes the outcome), RunKey
	// is known before a run executes, which is what makes it usable as a
	// result-cache address (the renoserve daemon caches on it).
	RunKey string
	Err    string // non-empty when the run failed
}

// GridOptions controls pool execution and emission determinism.
type GridOptions struct {
	// Workers bounds pool concurrency; <= 0 uses the grid's own worker
	// setting, or GOMAXPROCS.
	Workers int
	// Timeout bounds each run's wall-clock time (0 = none); timed-out
	// runs are recorded as failed with partial statistics.
	Timeout time.Duration
	// Stable zeroes wall-clock metrics in the emitted report, making
	// stable reports of the same grid byte-identical across worker
	// counts and machines.
	Stable bool
	// Progress, when non-nil, is called once per completed run.
	Progress func(Progress)
}

// RunGrid expands the grid and executes every job on the bounded worker
// pool under ctx. Results arrive in job order regardless of scheduling.
// When ctx is canceled, in-flight runs stop promptly and are recorded as
// failed with partial statistics; RunGrid still returns the partial
// GridResult. An error is returned only when the grid itself does not
// expand.
func RunGrid(ctx context.Context, g *Grid, opts GridOptions) (*GridResult, error) {
	sg := g.toSweep()
	jobs, err := sg.Expand()
	if err != nil {
		return nil, err
	}
	sopts := sg.Options()
	if opts.Workers > 0 {
		sopts.Workers = opts.Workers
	}
	sopts.Timeout = opts.Timeout
	if opts.Progress != nil {
		cb := opts.Progress
		sopts.Progress = func(ri sweep.RunInfo) {
			r := ri.Result
			cb(Progress{
				Done: ri.Done, Total: ri.Total,
				Bench: r.Bench, Tag: r.Tag(),
				IPC: r.IPC, ElimTotal: r.ElimTotal,
				RunHash: r.Hash, RunKey: ri.Key, Err: r.Err,
			})
		}
	}
	results := sweep.RunContext(ctx, jobs, sopts)
	return &GridResult{rep: sweep.NewReport(sg, results), stable: opts.Stable}, nil
}

// GridResult is a completed sweep.
type GridResult struct {
	rep    *sweep.Report
	stable bool
}

// GridSummary aggregates a sweep's totals.
type GridSummary struct {
	Runs     int
	Failed   int
	Insts    uint64
	Cycles   uint64
	MeanIPC  float64
	Warnings int // architectural-equivalence audit violations
}

// Summary returns the sweep totals.
func (gr *GridResult) Summary() GridSummary {
	s := gr.rep.Summary
	return GridSummary{
		Runs: s.Runs, Failed: s.Failed,
		Insts: s.Insts, Cycles: s.Cycles,
		MeanIPC: s.MeanIPC, Warnings: s.Warnings,
	}
}

// Audit returns one warning per run that violated architectural
// equivalence — every successful run of the same (bench, seed) pair must
// reach the same final architectural state whatever its configuration.
// Empty means clean.
func (gr *GridResult) Audit() []string { return sweep.Audit(gr.rep.Results) }

// Report renders the sweep as a reno.metrics/v1 envelope: the grid as the
// embedded spec, totals as the summary set, one record per run in job
// order. With GridOptions.Stable, wall-clock metrics are zeroed so the
// encoded bytes are identical across worker counts. The envelope's Tool
// defaults to "sim"; CLI wrappers overwrite it with their own name.
func (gr *GridResult) Report() (*metrics.Report, error) {
	rep, err := gr.rep.MetricsReport(sweep.EmitOptions{Deterministic: gr.stable})
	if err != nil {
		return nil, err
	}
	rep.Tool = "sim"
	return rep, nil
}

// WriteCSV writes the flat-table convenience view, one row per run.
func (gr *GridResult) WriteCSV(w io.Writer) error {
	return gr.rep.WriteCSV(w, sweep.EmitOptions{Deterministic: gr.stable})
}
