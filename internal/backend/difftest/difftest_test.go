package difftest

import (
	"context"
	"testing"
	"time"

	"reno/internal/backend"
	"reno/internal/machine"
	"reno/internal/workload"
)

// matrixInsts bounds the timed instructions per preset-matrix cell: enough
// to exercise warmed-up steady state (IT occupancy, bypassing, misses) while
// keeping the full machines × renos × backends sweep in unit-test budget.
const matrixInsts = 20000

// benchCell resolves one (bench, machine, reno) triple against the machine
// registry and the workload presets.
func benchCell(t testing.TB, bench, mach, rcfg string) Cell {
	t.Helper()
	rc, err := machine.RenoByName(rcfg)
	if err != nil {
		t.Fatalf("reno %s: %v", rcfg, err)
	}
	cfg, err := machine.ParseMachine(mach, rc)
	if err != nil {
		t.Fatalf("machine %s: %v", mach, err)
	}
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	prog, err := workload.Build(workload.Scale(p, 0.3))
	if err != nil {
		t.Fatalf("build %s: %v", bench, err)
	}
	warm, err := prog.WarmupCount()
	if err != nil {
		t.Fatalf("warmup %s: %v", bench, err)
	}
	return Cell{
		Machine: mach, Config: rcfg, Bench: bench,
		Cfg: cfg, Code: prog.Code, Warmup: warm, MaxInsts: matrixInsts,
	}
}

// TestBackendEquivalenceMatrix is the tentpole proof: for every machine
// preset × RENO configuration in the registry, the functional backend must
// match the detailed pipeline exactly on architectural results and
// elimination counts.
func TestBackendEquivalenceMatrix(t *testing.T) {
	ctx := context.Background()
	for _, m := range machine.Machines() {
		for _, r := range machine.Renos() {
			m, r := m, r
			t.Run(m.Name+"/"+r.Name, func(t *testing.T) {
				t.Parallel()
				cell := benchCell(t, "gzip", m.Name, r.Name)
				rep, err := Compare(ctx, cell, backend.Detailed, backend.Functional)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Equivalent() {
					t.Errorf("%s", rep)
				}
			})
		}
	}
}

// TestEquivalenceAcrossBenches widens the workload axis on the flagship
// configuration: both fidelity levels must agree on benches that stress
// memory (mcf-like chase), calls/returns, and redundancy differently.
func TestEquivalenceAcrossBenches(t *testing.T) {
	ctx := context.Background()
	for _, bench := range []string{"mcf", "crafty", "adpcm.de", "perl.d"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			cell := benchCell(t, bench, "4w", "RENO")
			rep, err := Compare(ctx, cell, backend.Detailed, backend.Functional)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Equivalent() {
				t.Errorf("%s", rep)
			}
		})
	}
}

// TestRunToHaltEquivalence drops the instruction budget entirely: both
// fidelity levels must run the program to architectural halt and agree.
func TestRunToHaltEquivalence(t *testing.T) {
	cell := benchCell(t, "gzip", "4w", "RENO")
	cell.MaxInsts = 0
	p, _ := workload.ByName("gzip")
	prog, err := workload.Build(workload.Scale(p, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	cell.Code = prog.Code
	warm, err := prog.WarmupCount()
	if err != nil {
		t.Fatal(err)
	}
	cell.Warmup = warm
	rep, err := Compare(context.Background(), cell, backend.Detailed, backend.Functional)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent() {
		t.Errorf("%s", rep)
	}
	if rep.ResA.Pipe.StopReason != "" || rep.ResB.Pipe.StopReason != "" {
		t.Errorf("expected run-to-halt on both backends, got %q / %q",
			rep.ResA.Pipe.StopReason, rep.ResB.Pipe.StopReason)
	}
}

// TestFunctionalSpeedup runs gzip to halt on the functional and detailed
// backends, checks that both commit the same instructions, and logs how
// much faster screening is (about 10x under BASE and 3x with RENO
// accounting; see docs/backends.md). The ratio carries no floor: a ratio of
// two wall-clock timings fails on a loaded host, and fails by design once
// the detailed backend gets faster. The repository benchmark measures it
// under repetition as backend.functional_speedup (perfbench/LAYERS.md).
func TestFunctionalSpeedup(t *testing.T) {
	ctx := context.Background()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("unknown bench gzip")
	}
	prog, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := prog.WarmupCount()
	if err != nil {
		t.Fatal(err)
	}

	for _, rcfg := range []string{"BASE", "RENO"} {
		cell := benchCell(t, "gzip", "4w", rcfg)
		cell.Code = prog.Code
		cell.Warmup = warm
		cell.MaxInsts = 0 // run to halt: both backends do identical work
		run := func(k backend.Kind) (*backend.Result, time.Duration) {
			start := time.Now()
			res, err := backend.For(k).Run(ctx, cell.request())
			if err != nil {
				t.Fatal(err)
			}
			return res, time.Since(start)
		}
		fn, fnT := run(backend.Functional)
		det, detT := run(backend.Detailed)
		if fn.Pipe.Insts != det.Pipe.Insts {
			t.Errorf("%s: functional committed %d instructions, detailed %d", rcfg, fn.Pipe.Insts, det.Pipe.Insts)
		}
		t.Logf("%s: detailed %v, functional %v: %.1fx", rcfg, detT, fnT, float64(detT)/float64(fnT))
	}
}

// TestDiagnoseLocalizesBudgetDivergence exercises the structured mismatch
// report directly: two runs of the same cell under different instruction
// budgets must diverge at exactly the shorter budget, with a non-trivial
// register delta across the disputed suffix.
func TestDiagnoseLocalizesBudgetDivergence(t *testing.T) {
	ctx := context.Background()
	cell := benchCell(t, "gzip", "4w", "RENO")
	short := cell
	short.MaxInsts = 1000
	long := cell
	long.MaxInsts = 2000

	ra, err := backend.For(backend.Functional).Run(ctx, short.request())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := backend.For(backend.Functional).Run(ctx, long.request())
	if err != nil {
		t.Fatal(err)
	}
	if ra.ArchHash == rb.ArchHash {
		t.Fatal("budgets 1000 and 2000 unexpectedly reached the same architectural state")
	}
	d := Diagnose(cell, ra, rb)
	if d.Index != 1000 {
		t.Errorf("divergence index = %d, want 1000 (the shorter budget)", d.Index)
	}
	if len(d.RegDelta) == 0 {
		t.Error("expected a non-empty register delta across the disputed suffix")
	}
	// Self-check: equal-length streams report index -1 (no divergence).
	if d := Diagnose(cell, ra, ra); d.Index != -1 {
		t.Errorf("identical runs: divergence index = %d, want -1", d.Index)
	}
}
