package harness

import (
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/machine"
	"reno/internal/sweep"
	"reno/internal/workload"
)

func tinyOpts() Options {
	return Options{Scale: 0.15, MaxInsts: 20_000, Parallel: true}
}

func TestExecuteAndSpeedup(t *testing.T) {
	rs := runGrid(context.Background(), io.Discard, sweep.Grid{Benches: []string{"gzip"}}, tinyOpts())
	if rs.get("gzip", "4w/BASE") == nil || rs.get("gzip", "4w/RENO") == nil {
		t.Fatal("runs missing")
	}
	sp := rs.speedup("gzip", "4w/BASE", "4w/RENO")
	if math.IsNaN(sp) {
		t.Fatal("speedup NaN")
	}
	if sp < -30 || sp > 60 {
		t.Errorf("implausible speedup %.1f%%", sp)
	}
	rel := rs.relPerf("gzip", "4w/BASE", "4w/RENO")
	if math.Abs(rel-(100+sp)) > 0.01 {
		t.Errorf("relPerf %.2f inconsistent with speedup %.2f", rel, sp)
	}
}

func TestArchitecturalEquivalenceAcrossConfigs(t *testing.T) {
	// The central soundness property: RENO must be invisible to software.
	// Run several benchmarks under every registered RENO configuration to
	// completion; runGrid's audit reports any final-state divergence as a
	// WARNING line.
	benches := []string{"gzip", "perl.s", "gsm.de", "crafty"}
	renos := machine.RenoNames()
	var out strings.Builder
	rs := runGrid(context.Background(), &out, sweep.Grid{
		Benches:     benches,
		RenoConfigs: sweep.Specs(renos...),
	}, Options{Scale: 0.1, MaxInsts: 0, Parallel: true}) // to completion
	if strings.Contains(out.String(), "WARNING") {
		t.Errorf("architectural state differs across configurations:\n%s", out.String())
	}
	if len(rs) != len(benches)*len(renos) {
		t.Errorf("%d runs, want %d", len(rs), len(benches)*len(renos))
	}
	for key, r := range rs {
		if r.Err != "" {
			t.Errorf("%s failed: %s", key, r.Err)
		}
	}
}

func TestEliminationRatesInPaperBands(t *testing.T) {
	// Figure 8 headline: RENO eliminates or folds ~22% of dynamic
	// instructions in both suites (we accept 15-32% per-suite averages).
	check := func(suite string, profs []workload.Profile) {
		var names []string
		for _, p := range profs[:6] { // subset for test runtime
			names = append(names, p.Name)
		}
		rs := runGrid(context.Background(), io.Discard, sweep.Grid{
			Benches:     names,
			RenoConfigs: sweep.Specs("RENO"),
		}, tinyOpts())
		var tot float64
		n := 0
		for _, name := range names {
			if r := rs.get(name, "4w/RENO"); r != nil {
				tot += r.ElimTotal
				n++
			}
		}
		avg := tot / float64(n)
		if avg < 15 || avg > 34 {
			t.Errorf("%s elimination average %.1f%%, want ~22%% (band 15-34)", suite, avg)
		}
	}
	for _, suite := range suites {
		check(suite.name, suite.profs)
	}
}

func TestRenoBeatsBaselineOnAverage(t *testing.T) {
	// Figure 8 bottom: positive average speedups on both suites.
	avgSpeedup := func(suite string, profs []workload.Profile) float64 {
		rs := runGrid(context.Background(), io.Discard, sweep.Grid{Benches: []string{suite}}, tinyOpts())
		var sps []float64
		for _, p := range profs {
			sps = append(sps, rs.speedup(p.Name, "4w/BASE", "4w/RENO"))
		}
		return MeanPct(sps)
	}
	if sp := avgSpeedup("SPECint", suites[0].profs); sp <= 0 {
		t.Errorf("SPECint average speedup %.1f%%, want positive (paper: 8%%)", sp)
	}
	if sp := avgSpeedup("MediaBench", suites[1].profs); sp <= 3 {
		t.Errorf("MediaBench average speedup %.1f%%, want clearly positive (paper: 13%%)", sp)
	}
}

// TestFigureListOrder: renobench's figure list holds the pinned
// generators (TestFiguresPinned) in the pinned order, under their section
// titles, with distinct keys.
func TestFigureListOrder(t *testing.T) {
	if len(Figures) != len(paperOrder) {
		t.Fatalf("%d figures, want %d", len(Figures), len(paperOrder))
	}
	keys := map[string]bool{"all": true}
	for i, f := range Figures {
		want := paperOrder[i]
		if f.Title != want.title || reflect.ValueOf(f.Run).Pointer() != reflect.ValueOf(want.run).Pointer() {
			t.Errorf("figure %d is %q, want %q", i, f.Title, want.title)
		}
		if keys[f.Key] {
			t.Errorf("figure %d: duplicate key %q", i, f.Key)
		}
		keys[f.Key] = true
	}
}

// TestMixReportsEmulatorFault: a program that runs off the end of its code
// yields the emulator's fault, which TableMix prints in place of a row of
// partial counts.
func TestMixReportsEmulatorFault(t *testing.T) {
	start := emu.New([]isa.Inst{{Op: isa.OpAddi, Rd: 1, Rs: 1, Imm: 1}}).Freeze()
	m, err := countMix(context.Background(), start, 0)
	if !errors.Is(err, emu.ErrPCRange) {
		t.Fatalf("countMix = %+v, %v; want %v", m, err, emu.ErrPCRange)
	}
}

// TestFig9HonorsTimeout: Figure 9 bypasses the sweep pool, so it applies
// Options.Timeout to each of its runs itself, as a sweep run does.
func TestFig9HonorsTimeout(t *testing.T) {
	var b strings.Builder
	Fig9(context.Background(), &b, Options{Scale: 0.05, MaxInsts: 3_000, Timeout: time.Nanosecond})
	const runs = (8 + 9) * 3 // benchmarks x {BASE, ME+CF, RENO}
	if n := strings.Count(b.String(), context.DeadlineExceeded.Error()); n != runs {
		t.Errorf("%d runs reported the deadline, want %d:\n%s", n, runs, b.String())
	}
}

// TestScaleDefault: a Scale <= 0 means 1.0 in the figures that start their
// programs themselves (TableMix, Fig9), as it does in the sweep-based ones.
func TestScaleDefault(t *testing.T) {
	for _, f := range []func(context.Context, io.Writer, Options){TableMix, Fig9} {
		var zero, one strings.Builder
		f(context.Background(), &zero, Options{Scale: 0, MaxInsts: 2_000, Parallel: true})
		f(context.Background(), &one, Options{Scale: 1, MaxInsts: 2_000, Parallel: true})
		if zero.String() != one.String() {
			t.Errorf("Scale 0 prints\n%s\nScale 1 prints\n%s", zero.String(), one.String())
		}
	}
}

func TestSpeedupEdgeCases(t *testing.T) {
	rs := results{}
	for key, c := range map[string]uint64{
		"b/base": 200, "b/fast": 100, "b/zero": 0, "z/base": 0, "z/cfg": 100,
	} {
		rs[key] = &sweep.Result{Cycles: c}
	}
	for _, tc := range []struct {
		name                string
		bench, base, config string
		want                float64 // NaN means "expect NaN"
	}{
		{"normal 2x", "b", "base", "fast", 100},
		{"identity", "b", "base", "base", 0},
		{"missing config", "b", "base", "nope", math.NaN()},
		{"missing bench", "x", "base", "fast", math.NaN()},
		{"zero-cycle config", "b", "base", "zero", math.NaN()},
		{"zero-cycle baseline", "z", "base", "cfg", -100},
	} {
		got := rs.speedup(tc.bench, tc.base, tc.config)
		if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(tc.want) && math.Abs(got-tc.want) > 1e-9) {
			t.Errorf("%s: speedup(%s,%s,%s) = %v, want %v", tc.name, tc.bench, tc.base, tc.config, got, tc.want)
		}
	}
}

// TestMeanAndGeoMean checks the amean the figures report; the geometric
// mean it once covered is gone, the arithmetic half stays.
func TestMeanAndGeoMean(t *testing.T) {
	vals := []float64{10, 20, math.NaN(), 30}
	if m := MeanPct(vals); math.Abs(m-20) > 1e-9 {
		t.Errorf("mean = %f", m)
	}
	if !math.IsNaN(MeanPct([]float64{math.NaN()})) {
		t.Error("mean of all-NaN should be NaN")
	}
}

func TestMeanPctEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float64
		want float64
	}{
		{"empty", nil, math.NaN()},
		{"all NaN", []float64{math.NaN(), math.NaN()}, math.NaN()},
		{"single element", []float64{7.5}, 7.5},
		{"single with NaNs", []float64{math.NaN(), 7.5, math.NaN()}, 7.5},
		{"zeros", []float64{0, 0}, 0},
		{"mixed sign", []float64{-10, 10}, 0},
	} {
		got := MeanPct(tc.vals)
		if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(tc.want) && math.Abs(got-tc.want) > 1e-9) {
			t.Errorf("%s: MeanPct(%v) = %v, want %v", tc.name, tc.vals, got, tc.want)
		}
	}
}

// TestSerialOverridesWorkers pins Options semantics: Parallel=false means
// one worker even when Workers is set (renobench -serial -workers N).
func TestSerialOverridesWorkers(t *testing.T) {
	if got := (Options{Parallel: false, Workers: 8}).workers(); got != 1 {
		t.Errorf("serial options resolved to %d workers, want 1", got)
	}
	if got := (Options{Parallel: true, Workers: 8}).workers(); got != 8 {
		t.Errorf("parallel options resolved to %d workers, want 8", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("x", "1.0")
	var b strings.Builder
	tb.Fprint(&b)
	out := b.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "bb") || !strings.Contains(out, "x") {
		t.Errorf("table output malformed:\n%s", out)
	}
}

func TestFFormat(t *testing.T) {
	if F(1.25) != "1.2" && F(1.25) != "1.3" {
		t.Errorf("F(1.25) = %s", F(1.25))
	}
	if F(math.NaN()) != "-" {
		t.Errorf("F(NaN) = %s", F(math.NaN()))
	}
}
