// Package difftest is the differential harness that proves the simulation
// backends equivalent: the same cell run on two backends must produce
// byte-identical architectural results (final architectural state hash and
// committed-instruction stream hash) and identical RENO elimination counts.
//
// The harness is both a library (Compare/Diagnose, used by the fuzz target
// and the CI backend-equivalence job) and a test suite (difftest_test.go)
// that sweeps every machine preset × RENO configuration in the registry.
// When a comparison fails, Diagnose produces a structured divergence report:
// the first divergent committed-instruction index and the architectural
// register delta at that point.
package difftest

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"reno/internal/backend"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/pipeline"
	"reno/internal/reno"
)

// Cell is one comparison unit: a resolved machine configuration and a
// program with its run bounds. Label fields are for reporting only.
type Cell struct {
	Machine string
	Config  string
	Bench   string

	Cfg      pipeline.Config
	Code     []isa.Inst
	Warmup   uint64
	MaxInsts uint64
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%s", c.Bench, c.Machine, c.Config)
}

func (c Cell) request() backend.Request {
	return backend.Request{Cfg: c.Cfg, Code: c.Code, Warmup: c.Warmup, MaxInsts: c.MaxInsts}
}

// Mismatch is one field-level disagreement between two backend runs.
type Mismatch struct {
	Field string
	A, B  uint64
}

// RegDiff is one architectural register whose value differs at the
// divergence point.
type RegDiff struct {
	Reg  int
	A, B uint64
}

// Divergence localizes a committed-stream disagreement.
type Divergence struct {
	// Index is the first divergent committed-instruction index (timed
	// instructions, zero-based), or -1 when the committed streams agree
	// instruction-for-instruction (a harness-level hash bug, not a
	// simulation divergence).
	Index int64

	// RegDelta lists the architectural registers that differ between the
	// two machines' states at Index.
	RegDelta []RegDiff
}

// Report is the outcome of comparing one cell on two backends.
type Report struct {
	Cell Cell
	A, B backend.Kind

	ResA, ResB *backend.Result

	Mismatches []Mismatch

	// Divergence is populated (via Diagnose) when the committed streams
	// disagree.
	Divergence *Divergence
}

// Equivalent reports whether the two runs matched on every compared field.
func (r *Report) Equivalent() bool { return len(r.Mismatches) == 0 }

// String renders the structured mismatch report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s vs %s", r.Cell, r.A, r.B)
	if r.Equivalent() {
		b.WriteString(": equivalent")
		return b.String()
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "\n  %-14s %#x != %#x", m.Field, m.A, m.B)
	}
	if d := r.Divergence; d != nil {
		if d.Index < 0 {
			b.WriteString("\n  committed streams agree instruction-for-instruction (hash-layer bug?)")
		} else {
			fmt.Fprintf(&b, "\n  first divergent committed instruction: #%d", d.Index)
			for _, rd := range d.RegDelta {
				fmt.Fprintf(&b, "\n    r%-2d %#x != %#x", rd.Reg, rd.A, rd.B)
			}
		}
	}
	return b.String()
}

// Compare runs cell on backends a and b and verifies architectural
// equivalence: final state hash, committed-stream hash, committed
// instruction count, per-kind elimination counts, and re-execution-failure
// counts must all match exactly. Timing fields are not compared — they are
// exactly what fidelity levels are allowed to disagree on.
func Compare(ctx context.Context, cell Cell, a, b backend.Kind) (*Report, error) {
	ra, err := backend.For(a).Run(ctx, cell.request())
	if err != nil {
		return nil, fmt.Errorf("difftest %s: %s backend: %w", cell, a, err)
	}
	rb, err := backend.For(b).Run(ctx, cell.request())
	if err != nil {
		return nil, fmt.Errorf("difftest %s: %s backend: %w", cell, b, err)
	}

	rep := &Report{Cell: cell, A: a, B: b, ResA: ra, ResB: rb}
	add := func(field string, va, vb uint64) {
		if va != vb {
			rep.Mismatches = append(rep.Mismatches, Mismatch{Field: field, A: va, B: vb})
		}
	}
	add("insts", ra.Pipe.Insts, rb.Pipe.Insts)
	add("arch-hash", ra.ArchHash, rb.ArchHash)
	add("commit-hash", ra.CommitHash, rb.CommitHash)
	for k := 0; k < len(ra.Pipe.Reno.Eliminated); k++ {
		add(fmt.Sprintf("elim[%s]", reno.Kind(k)), ra.Pipe.Reno.Eliminated[k], rb.Pipe.Reno.Eliminated[k])
	}
	add("reexec-fails", ra.Pipe.ReexecFails, rb.Pipe.ReexecFails)

	if !rep.Equivalent() {
		rep.Divergence = Diagnose(cell, ra, rb)
	}
	return rep, nil
}

// Diagnose localizes a mismatch between two runs of the same cell. Both
// backends consume the deterministic emulator stream under the same
// instruction budget, so a committed-stream divergence manifests as a length
// difference: the report pins the first index only one backend committed and
// the architectural register delta accrued across the disputed suffix. When
// the streams have equal length they are identical by determinism, and a
// hash mismatch indicates a harness bug (Index -1).
func Diagnose(cell Cell, ra, rb *backend.Result) *Divergence {
	nA, nB := ra.Pipe.Insts, rb.Pipe.Insts
	if nA == nB {
		return &Divergence{Index: -1}
	}
	lo, hi := nA, nB
	if lo > hi {
		lo, hi = hi, lo
	}

	m := emu.New(cell.Code)
	_, _ = m.Advance(nil, cell.Warmup+lo, emu.NoStop)
	regsLo := m.Regs
	_, _ = m.Advance(nil, cell.Warmup+hi, emu.NoStop)

	d := &Divergence{Index: int64(lo)}
	for i := range m.Regs {
		a, b := regsLo[i], m.Regs[i]
		if nA > nB {
			a, b = b, a // A committed the longer prefix
		}
		if a != b {
			d.RegDelta = append(d.RegDelta, RegDiff{Reg: i, A: a, B: b})
		}
	}
	sort.Slice(d.RegDelta, func(i, j int) bool { return d.RegDelta[i].Reg < d.RegDelta[j].Reg })
	return d
}
