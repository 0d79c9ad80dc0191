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

// TestReproducedNumbers pins every metric of every cell of reproducedGrid
// on all three backends. Each golden line holds a cell's labels, its
// run_hash and an FNV-64a digest of the whole stable record, so any change
// to a reproduced number, on any backend, fails here. A deliberate change
// regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestReproducedNumbers .
//
// and shows up in review as a diff of the affected cells.
func TestReproducedNumbers(t *testing.T) {
	var got strings.Builder
	hits := uint64(0)
	for _, backend := range []string{"detailed", "approx", "functional"} {
		g := reproducedGrid
		g.Backend = backend
		gr, err := sim.RunGrid(context.Background(), &g, sim.GridOptions{Workers: 2, Stable: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := gr.Report()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
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
				rec.Label(metrics.LabelConfig), rec.Attr(metrics.AttrRunHash), h.Sum64())
		}
	}
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
