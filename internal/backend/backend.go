// Package backend defines the simulation backends: one Backend interface
// with two implementations, both consuming the shared elimination engine
// (internal/elim) so RENO elimination accounting is identical at either
// fidelity level.
//
//	detailed    the cycle-level pipeline model (internal/pipeline): full
//	            structural hazards, ports, squash/replay. Ground truth.
//	functional  the emulator plus the elimination engine, no timing at
//	            all. Screens cells an order of magnitude faster than
//	            detailed.
//
// Both backends validate the configuration the same way and read the same
// trace feed (pipeline.Feed: started from the program's post-warmup
// snapshot or after running the warmup, instruction budget, commit-stream
// hash). They report the same architectural result (final state hash and
// committed-instruction stream hash) and the same elimination counts for a
// given cell; internal/backend/difftest proves it. Functional reports no
// cycles or IPC, and runs several configurations that share a program
// start and budget over one feed (RunGroup).
package backend

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/pipeline"
)

// Kind identifies a simulation backend.
type Kind uint8

const (
	// Detailed is the cycle-level pipeline model — the zero value, so
	// specs and grids that never mention a backend keep their meaning.
	Detailed Kind = iota
	// Functional is the untimed emulator-plus-engine model.
	Functional
)

func (k Kind) String() string {
	switch k {
	case Detailed:
		return "detailed"
	case Functional:
		return "functional"
	}
	return fmt.Sprintf("backend(%d)", uint8(k))
}

// ParseKind resolves a backend name. The empty string selects Detailed, so
// every pre-backend spec, grid, and cache key keeps its meaning.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "detailed":
		return Detailed, nil
	case "functional":
		return Functional, nil
	}
	return Detailed, fmt.Errorf("unknown backend %q (want %s)", s, strings.Join(Names(), ", "))
}

// Kinds returns every backend, detailed first.
func Kinds() []Kind { return []Kind{Detailed, Functional} }

// Names returns the canonical backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return names
}

// Request describes one simulation cell: a fully resolved machine
// configuration, the program image, and the run bounds. It is
// backend-independent — the same Request on two backends is the
// differential harness's unit of comparison.
type Request struct {
	Cfg      pipeline.Config
	Code     []isa.Inst
	Warmup   uint64 // functional warmup instructions before timing
	MaxInsts uint64 // timed instruction budget (0 = to completion)
	Opts     pipeline.RunOptions

	// Start, when set, is the program's post-warmup state
	// (workload.Program.Warm; it carries its code) and replaces Code and
	// Warmup: the run starts from a private copy of it instead of running
	// the warmup again. It is only read, so concurrent runs may share
	// one. When nil, the backend runs Code's first Warmup instructions
	// itself, polling ctx. Both give the same run.
	Start *emu.Snapshot
}

// Result is one backend run. Pipe carries the statistics at whatever
// fidelity the backend models (see the package comment for which fields are
// meaningful per backend); ArchHash and CommitHash are the architectural
// equivalence witnesses every backend must agree on.
type Result struct {
	Pipe *pipeline.Result

	// ArchHash is the final architectural state hash (emu.StateHash).
	ArchHash uint64

	// CommitHash is an order-sensitive 64-bit hash over the full committed
	// dynamic instruction stream (PC, instruction, next PC, effective
	// address, branch outcome, result and source values, in program
	// order).
	CommitHash uint64
}

// Backend runs simulation cells at one fidelity level.
type Backend interface {
	Kind() Kind
	// Run executes the cell. On cancellation it returns the partial result
	// together with ctx's error (detailed semantics); the architectural
	// hashes of partial runs are not comparable across backends.
	Run(ctx context.Context, req Request) (*Result, error)
}

// For returns the backend implementing k.
func For(k Kind) Backend {
	switch k {
	case Functional:
		return functionalBackend{}
	default:
		return detailedBackend{}
	}
}

// validate is the configuration check every backend runs first, so both
// reject a configuration with the same error.
func validate(cfg pipeline.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	return nil
}

// feed positions req's trace feed at the first timed instruction, from
// req.Start or by running the warmup.
func feed(ctx context.Context, req Request) (*pipeline.Feed, error) {
	if req.Start != nil {
		return pipeline.NewFeed(ctx, req.Start.Machine(), req.MaxInsts), nil
	}
	m, err := pipeline.Warm(ctx, req.Code, req.Warmup)
	if err != nil {
		return nil, fmt.Errorf("backend warmup: %w", err)
	}
	return pipeline.NewFeed(ctx, m, req.MaxInsts), nil
}
