package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reno/internal/machine"
	"reno/internal/sweep"
)

// TestFunctionalScreenPinned pins a full screening grid: every benchmark
// on 4w under every registered RENO configuration at seed 1, on the
// functional backend at scale 0.3, so every program's path from warmup to
// the timed feed is covered. Each golden line holds a cell's labels, its
// run hash (which covers every reported count) and its architectural state
// hash. A deliberate change regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestFunctionalScreenPinned .
func TestFunctionalScreenPinned(t *testing.T) {
	pinScreen(t, sweep.Grid{
		Benches:     []string{"all"},
		RenoConfigs: sweep.Specs(machine.RenoNames()...),
		Seeds:       []int64{1},
		Backend:     "functional",
	}, "functional_screen.golden")
}

// TestDetailedScreenPinned is the detailed-backend sibling of
// TestFunctionalScreenPinned: every benchmark on 4w and on 4w:p96 (whose
// small register file exercises the elimination engine's force-commit
// retry) under BASE, ME+CF, RENO and RENO+FI at seed 1 and scale 0.3. Its
// run hashes cover the cycle counts, so every use of an instruction's
// class at fetch, issue and branch prediction is pinned. A deliberate
// change regenerates the pin with
//
//	UPDATE_GOLDEN=1 go test -run TestDetailedScreenPinned .
func TestDetailedScreenPinned(t *testing.T) {
	pinScreen(t, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w", "4w:p96"),
		RenoConfigs:    sweep.Specs("BASE", "ME+CF", "RENO", "RENO+FI"),
		Seeds:          []int64{1},
		Backend:        "detailed",
	}, "detailed_screen.golden")
}

// pinScreen runs g at scale 0.3 and compares one line per cell (labels,
// run hash, architectural state hash) with testdata/<name>, or rewrites
// that file when UPDATE_GOLDEN is set.
func pinScreen(t *testing.T, g sweep.Grid, name string) {
	t.Helper()
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range sweep.RunContext(context.Background(), jobs, sweep.Options{Workers: 2, Scale: 0.3}) {
		if r.Err != "" {
			t.Fatalf("%s %s: %s", r.Bench, r.Tag(), r.Err)
		}
		fmt.Fprintf(&got, "%s %s %s %d %s %s\n", r.Bench, r.Machine, r.Config, r.Seed, r.Hash, r.ArchHash)
	}

	golden := filepath.Join("testdata", name)
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
		t.Errorf("%s results changed.\n"+
			"If intentional, regenerate the pin with UPDATE_GOLDEN=1 and call the change out in review.\n"+
			"--- pinned\n+++ current\n%s", name, unifiedDiff(string(want), got.String()))
	}
}
