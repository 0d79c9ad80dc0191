package sim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"reno/internal/backend"
	"reno/internal/sweep"
	"reno/internal/workload"
	"reno/metrics"
)

// TestLoadResolvesAndValidates: good specs load; bad axes fail at Load with
// actionable errors, never mid-run.
func TestLoadResolvesAndValidates(t *testing.T) {
	p, err := Load(Spec{Bench: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Tag(); got != "4w/RENO" {
		t.Errorf("default tag %q, want 4w/RENO", got)
	}
	mi := p.Machine()
	if mi.PhysRegs != 160 || mi.IQSize != 50 || mi.ROBSize != 128 {
		t.Errorf("machine info %+v does not match the 4w preset", mi)
	}

	if p, err = Load(Spec{Bench: "gzip", Machine: "4w:p112:i2t3:s2", Config: "ME+CF", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if got := p.Tag(); got != "4w:p112:i2t3:s2/ME+CF@s3" {
		t.Errorf("DSL tag %q", got)
	}
	if mi := p.Machine(); mi.PhysRegs != 112 || mi.SchedLoop != 2 {
		t.Errorf("DSL modifiers not applied: %+v", mi)
	}

	// Inline JSON spec objects work on both axes.
	p, err = Load(Spec{
		Bench:   "micro.chase",
		Machine: `{"base":"4w","name":"bigrob","rob_size":256}`,
		Config:  `{"base":"RENO","name":"it1k","it_entries":1024,"it_ways":4}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Tag(); got != "bigrob/it1k" {
		t.Errorf("inline tag %q", got)
	}
	if mi := p.Machine(); mi.ROBSize != 256 {
		t.Errorf("inline override not applied: %+v", mi)
	}

	for _, bad := range []Spec{
		{},
		{Bench: "no-such-bench"},
		{Bench: "gzip", Machine: "9w"},
		{Bench: "gzip", Machine: "4w:p128:p64"},
		{Bench: "gzip", Config: "TURBO"},
		{Bench: "gzip", Machine: `{"rob_size":256}`}, // no base
		{Bench: "gzip", Machine: `{"base":"4w","rob_sizee":256}`}, // typo
	} {
		if _, err := Load(bad); err == nil {
			t.Errorf("Load(%+v) accepted a bad spec", bad)
		}
	}
}

// TestRunProducesUnifiedResult: headline fields, the metric set, and the
// single-run envelope agree with each other.
func TestRunProducesUnifiedResult(t *testing.T) {
	p, err := Load(Spec{Bench: "gzip", Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(Options{MaxInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 || res.Cycles == 0 || res.IPC <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.StopReason != "max-insts" {
		t.Errorf("StopReason %q, want max-insts", res.StopReason)
	}
	set := res.Metrics()
	if c, ok := set.Count(metrics.PipelineCycles); !ok || c != res.Cycles {
		t.Errorf("metric %s = %d,%v; headline %d", metrics.PipelineCycles, c, ok, res.Cycles)
	}
	if v, ok := set.Value(metrics.RenoElimTotal); !ok || v != res.ElimTotal {
		t.Errorf("metric %s = %v,%v; headline %v", metrics.RenoElimTotal, v, ok, res.ElimTotal)
	}
	if _, ok := set.Value(metrics.CPAFetchPct); ok {
		t.Errorf("cpa metrics present without CPAChunk")
	}

	rec := res.Record()
	if rec.Label(metrics.LabelBench) != "gzip" || rec.Label(metrics.LabelMachine) != "4w" || rec.Label(metrics.LabelConfig) != "RENO" {
		t.Errorf("record labels %+v", rec.Labels)
	}

	// Labels come from the resolved tag halves, not from re-splitting the
	// joined Tag — an inline spec name containing '/' must not corrupt
	// them.
	pSlash, err := Load(Spec{Bench: "gzip", Scale: 0.3,
		Machine: `{"base":"4w","name":"exp/a","rob_size":256}`})
	if err != nil {
		t.Fatal(err)
	}
	resSlash, err := pSlash.Run(Options{MaxInsts: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if rec := resSlash.Record(); rec.Label(metrics.LabelMachine) != "exp/a" || rec.Label(metrics.LabelConfig) != "RENO" {
		t.Errorf("slash-named spec mislabeled: %+v", rec.Labels)
	}
	if rec.Attr(metrics.AttrArchHash) == "" {
		t.Errorf("record lacks arch_hash")
	}

	var buf bytes.Buffer
	if err := res.Report().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := metrics.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("single-run envelope does not round-trip: %v", err)
	}
	if len(dec.Records) != 1 || !dec.Records[0].Metrics.Equal(set) {
		t.Errorf("decoded envelope lost metrics")
	}

	// CPA attachment adds the cpa.* breakdown.
	res2, err := p.Run(Options{MaxInsts: 20_000, CPAChunk: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.Metrics().Value(metrics.CPAFetchPct); !ok {
		t.Errorf("CPAChunk set but no cpa metrics")
	}
}

// TestCancellationSemantics: a run under a canceled context returns the
// partial result with StopReason "canceled", recorded as the stop_reason
// attribute, and ctx's error. Load already ran the warmup, so the
// cancellation lands in the timed region like any other. Mid-run
// cancellation is pinned by the pipeline's resumed-run tests.
func TestCancellationSemantics(t *testing.T) {
	p, err := Load(Spec{Bench: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.RunContext(ctx, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if res == nil || res.StopReason != "canceled" {
		t.Fatalf("pre-canceled run returned (%+v, %v), want a canceled partial result", res, err)
	}
	if rec := res.Record(); rec.Attr(metrics.AttrStopReason) != "canceled" {
		t.Errorf("record attrs %+v lack stop_reason", rec.Attrs)
	}
}

// TestFunctionalRefusesCPA: critical-path analysis needs cycles, so a
// functional program's Run refuses a CPAChunk instead of ignoring it.
func TestFunctionalRefusesCPA(t *testing.T) {
	p, err := Load(Spec{Bench: "gzip", Backend: "functional"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(Options{CPAChunk: 5_000})
	if err == nil || !strings.Contains(err.Error(), "detailed") {
		t.Fatalf("functional run with CPAChunk returned (%v, %v), want an error naming the detailed backend", res, err)
	}
	if res != nil {
		t.Errorf("refused run returned a result: %+v", res)
	}
}

// TestLoadAsm: assembly sources run through the same facade and carry no
// bench label.
func TestLoadAsm(t *testing.T) {
	p, err := LoadAsm(`
		li   r1, 10
	loop:
		move r2, r1
		add  r3, r3, r2
		subi r1, r1, 1
		bne  r1, zero, loop
		halt
	`, Spec{Config: "RENO"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 {
		t.Fatal("asm program committed nothing")
	}
	if _, ok := res.Record().Labels[metrics.LabelBench]; ok {
		t.Errorf("asm record has a bench label")
	}
	if _, err := LoadAsm("not an instruction", Spec{}); err == nil {
		t.Errorf("bad assembly accepted")
	}
}

// TestBudgetStopCycles pins the detailed run's stop at the instruction
// budget. With fetch blocked behind the last budgeted instruction, the feed
// is not probed again, so only the commit-count stop ends these runs on
// time; without it both run to the same later cycle.
func TestBudgetStopCycles(t *testing.T) {
	p, err := Load(Spec{Bench: "gsm.de", Scale: 0.2, Machine: "4w", Config: "RENO"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ budget, cycles uint64 }{{2159, 2317}, {2164, 2453}} {
		res, err := p.Run(Options{MaxInsts: c.budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != c.cycles || res.Insts != c.budget || res.StopReason != "max-insts" {
			t.Errorf("budget %d: %d cycles, %d insts, stop %q; want %d cycles, %d insts, stop \"max-insts\"",
				c.budget, res.Cycles, res.Insts, res.StopReason, c.cycles, c.budget)
		}
	}
}

// TestLoadedProgramMatchesWarmupRun: a loaded Program starts every run from
// the snapshot Load kept, and that gives the run a request naming the code
// and its warmup count gives, on both backends, again on a second Run.
func TestLoadedProgramMatchesWarmupRun(t *testing.T) {
	for _, be := range []string{"detailed", "functional"} {
		spec := Spec{Bench: "gzip", Machine: "4w", Config: "RENO", Seed: 1, Scale: 0.2, Backend: be}
		p, err := Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		prof, _ := workload.ByName("gzip")
		prog, err := workload.Build(workload.Scale(sweep.SeedProfile(prof, spec.Seed), spec.Scale))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := prog.WarmupCount()
		if err != nil {
			t.Fatal(err)
		}
		kind, err := backend.ParseKind(be)
		if err != nil {
			t.Fatal(err)
		}
		want, err := backend.For(kind).Run(context.Background(), backend.Request{
			Cfg: p.cfg, Code: prog.Code, Warmup: warm, MaxInsts: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 2; run++ {
			got, err := p.Run(Options{MaxInsts: 20000})
			if err != nil {
				t.Fatal(err)
			}
			if got.ArchHash != want.ArchHash || got.StopReason != want.Pipe.StopReason || !got.Metrics().Equal(want.Pipe.Metrics()) {
				t.Errorf("%s run %d: loaded program gave arch %016x stop %q, warmup run arch %016x stop %q (metrics equal: %v)",
					be, run, got.ArchHash, got.StopReason, want.ArchHash, want.Pipe.StopReason, got.Metrics().Equal(want.Pipe.Metrics()))
			}
		}
	}
}
