package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reno/metrics"
	"reno/sim"
)

// reproducedGrid is the small grid whose stable records pin the reproduced
// numbers. RENO and FullInteg probe the integration table (CSE and
// speculative memory bypassing), and the 40-register machine exhausts the
// physical register file, so the engine's force-commit path runs too.
var reproducedGrid = sim.Grid{
	Benches:  []string{"gzip", "gsm.de", "vortex"},
	Machines: []string{"4w", "4w:p40"},
	Configs:  []string{"BASE", "RENO", "RENO+FI", "FullInteg"},
	Scale:    0.2,
	MaxInsts: 20_000,
}

// idleGrid pins the cells the paper's figures run but reproducedGrid
// misses: mcf and parser spend most cycles waiting on memory and exercise
// store-to-load forwarding and store sets, on the 6-wide machine and with
// the 2-cycle wakeup-select loop. Detailed backend only: the functional
// backend has no cycles to pin.
var idleGrid = sim.Grid{
	Benches:  []string{"mcf", "parser"},
	Machines: []string{"6w", "4w:s2"},
	Configs:  []string{"BASE", "RENO"},
	Scale:    0.2,
	MaxInsts: 20_000,
	Backend:  "detailed",
}

// cpaSpec and cpaOpts pin one cell with the critical-path analyzer
// attached, so the cpa.* metrics (Figure 9) are covered too.
var (
	cpaSpec = sim.Spec{Bench: "mcf", Machine: "4w", Config: "RENO", Scale: 0.2}
	cpaOpts = sim.Options{MaxInsts: 20_000, CPAChunk: 5_000}
)

// TestReproducedNumbers pins every metric of every cell of reproducedGrid
// on both backends, of idleGrid, and of the cpaSpec cell. Each golden line
// holds a cell's labels, its run_hash (the run key for the CPA cell) and
// an FNV-64a digest of the whole stable record, so any change to a
// reproduced number, on any backend, fails here. A deliberate change
// regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestReproducedNumbers .
//
// and shows up in review as a diff of the affected cells.
func TestReproducedNumbers(t *testing.T) {
	var got strings.Builder
	hits := uint64(0)
	pin := func(backend string, rec metrics.Record, hash string) {
		t.Helper()
		if e := rec.Attr(metrics.AttrError); e != "" {
			t.Fatalf("%s %s/%s/%s: %s", backend, rec.Label(metrics.LabelBench),
				rec.Label(metrics.LabelMachine), rec.Label(metrics.LabelConfig), e)
		}
		if n, ok := rec.Metrics.Count(metrics.ITHits); ok {
			hits += n
		}
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(body)
		fmt.Fprintf(&got, "%s %s %s %s %s %016x\n", backend,
			rec.Label(metrics.LabelBench), rec.Label(metrics.LabelMachine),
			rec.Label(metrics.LabelConfig), hash, h.Sum64())
	}

	detailed, functional := reproducedGrid, reproducedGrid
	detailed.Backend, functional.Backend = "detailed", "functional"
	for _, g := range []sim.Grid{detailed, functional, idleGrid} {
		gr, err := sim.RunGrid(context.Background(), &g, sim.GridOptions{Workers: 2, Stable: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := gr.Report()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			pin(g.Backend, rec, rec.Attr(metrics.AttrRunHash))
		}
	}

	p, err := sim.Load(cpaSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(cpaOpts)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Record()
	if _, ok := rec.Metrics.Lookup(metrics.CPAMemPct); !ok {
		t.Fatal("CPA cell carries no cpa.* metrics")
	}
	pin("detailed-cpa", rec, p.RunKey(cpaOpts))
	if hits == 0 {
		t.Error("no cell integrated a single instruction: the grid no longer exercises CSE/RA")
	}

	golden := filepath.Join("testdata", "reproduced.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the pin)", err)
	}
	if !bytes.Equal([]byte(got.String()), want) {
		t.Errorf("reproduced numbers changed.\n"+
			"If intentional, regenerate the pin with UPDATE_GOLDEN=1 and call the change out in review.\n"+
			"--- pinned\n+++ current\n%s", unifiedDiff(string(want), got.String()))
	}
}
