package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"reno/internal/sweep"
	"reno/sim"
)

func TestGridSeedsReproduciblePerSeed(t *testing.T) {
	a, b := gridSeeds(7), gridSeeds(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave %v then %v", a, b)
	}
	if len(a) != screenSeeds {
		t.Fatalf("got %d grid seeds, want %d", len(a), screenSeeds)
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if s == 0 || seen[s] {
			t.Errorf("grid seeds %v must be distinct and non-zero", a)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(gridSeeds(7), gridSeeds(8)) {
		t.Error("seeds 7 and 8 gave the same grid seeds")
	}
}

func TestScreenGridExpandsTo714Cells(t *testing.T) {
	s := newScreen(3)
	g, err := sweep.ParseGridJSON(s.full)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 714 {
		t.Errorf("full grid has %d cells, want 34 benchmarks x 7 configs x 3 seeds = 714", len(jobs))
	}
	if len(s.slices) != 34 {
		t.Errorf("%d slices, want 34", len(s.slices))
	}
	sg, err := sweep.ParseGridJSON(s.slices["gzip"])
	if err != nil {
		t.Fatal(err)
	}
	if sj, err := sg.Expand(); err != nil || len(sj) != 21 {
		t.Errorf("gzip slice: %d cells, %v; want 21", len(sj), err)
	}
	if !bytes.Equal(newScreen(3).full, s.full) {
		t.Error("the same seed gave two different grids")
	}
}

func TestWarmMixReproducibleOneFullGridPerBlock(t *testing.T) {
	a, b := warmMix(5, 400), warmMix(5, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 5 gave two different request sequences")
	}
	if reflect.DeepEqual(a, warmMix(6, 400)) {
		t.Error("seeds 5 and 6 gave the same sequence")
	}
	for i := 0; i < len(a); i += 4 {
		full := 0
		for _, r := range a[i : i+4] {
			if r.Bench == "" {
				full++
			}
		}
		if full != 1 {
			t.Fatalf("block at %d has %d full-grid requests, want 1", i, full)
		}
	}
	if got := len(warmMix(5, 10)); got != 10 {
		t.Errorf("warmMix(5, 10) returned %d requests", got)
	}
}

// TestReferenceMatchesRenosweepPath checks that the benchmark's reference
// envelope, built from the sweep layer, is byte-identical to what the
// public sim facade (renosweep's path) emits for the same grid.
func TestReferenceMatchesRenosweepPath(t *testing.T) {
	spec := []byte(`{"version":2,"benches":["gzip"],"machines":["4w"],"renos":["BASE","RENO"],"seeds":[4],"backend":"functional","max_insts":3000,"scale":0.05}`)
	g, err := sweep.ParseGridJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got, err := stableEnvelope(g, sweep.RunContext(context.Background(), jobs, g.Options()))
	if err != nil {
		t.Fatal(err)
	}

	sg, err := sim.ParseGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := sim.RunGrid(context.Background(), sg, sim.GridOptions{Stable: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gr.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep.Tool = "renosweep"
	var want bytes.Buffer
	if err := rep.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("reference envelope differs from the sim facade's")
	}
}

func TestStripTiming(t *testing.T) {
	in := "==== Figure 8 ====\nrow (a in b) x\n(Figure 8 in 3.855s)\n\n==== CF fusion-latency ablation (Section 3.3) ====\n(CF fusion-latency ablation (Section 3.3) in 2.14s)\n\n"
	want := "==== Figure 8 ====\nrow (a in b) x\n\n==== CF fusion-latency ablation (Section 3.3) ====\n\n"
	if got := string(stripTiming([]byte(in))); got != want {
		t.Errorf("stripTiming = %q, want %q", got, want)
	}
	if timingLine.Match(goldenPaper) {
		t.Error("the golden figure text still holds a timing line")
	}
	for _, f := range paperFigures() {
		if !strings.Contains(string(goldenPaper), "==== "+f.title+" ====\n") {
			t.Errorf("golden text lacks %q", f.title)
		}
	}
}
