package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"reno/internal/machine"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// screenSeeds is how many workload seeds the screening grid crosses.
const screenSeeds = 3

// screenMaxInsts caps timed instructions per screening cell, as renosweep's
// default -max does.
const screenMaxInsts = 300_000

// gridSeeds derives the screening grid's workload seed offsets from the
// benchmark seed: distinct, non-zero, and the same for the same seed.
func gridSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	var out []int64
	for len(out) < screenSeeds {
		s := 1 + rng.Int63n(1_000_000)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// gridSpec is the JSON grid a client submits: one or more benchmarks on
// the 4-wide machine under every registered RENO configuration, at the
// given seeds, on the functional (screening) backend.
type gridSpec struct {
	Version  int      `json:"version"`
	Benches  []string `json:"benches"`
	Machines []string `json:"machines"`
	Renos    []string `json:"renos"`
	Seeds    []int64  `json:"seeds"`
	Backend  string   `json:"backend"`
	MaxInsts uint64   `json:"max_insts"`
}

func screenGrid(benches []string, seeds []int64) []byte {
	data, err := json.Marshal(gridSpec{
		Version:  2,
		Benches:  benches,
		Machines: []string{"4w"},
		Renos:    machine.RenoNames(),
		Seeds:    seeds,
		Backend:  "functional",
		MaxInsts: screenMaxInsts,
	})
	if err != nil {
		panic(err) // a fixed struct of strings and integers always marshals
	}
	return data
}

// benchNames lists every registered benchmark in registry order, the order
// the "all" alias expands to.
func benchNames() []string {
	var names []string
	for _, p := range workload.AllProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// screen is one seed's screening grid: the full grid over every benchmark
// and its single-benchmark slices, plus (once computed) the stable
// envelope renosweep emits for each.
type screen struct {
	seeds  []int64
	full   []byte            // the full grid spec
	slices map[string][]byte // bench → single-benchmark grid spec

	refFull   []byte            // renosweep -stable envelope of full
	refSlices map[string][]byte // bench → renosweep -stable envelope of its slice
}

func newScreen(seed int64) *screen {
	s := &screen{seeds: gridSeeds(seed), slices: map[string][]byte{}}
	s.full = screenGrid([]string{"all"}, s.seeds)
	for _, b := range benchNames() {
		s.slices[b] = screenGrid([]string{b}, s.seeds)
	}
	return s
}

// reference computes the renosweep -stable envelopes of the full grid and
// of every slice, through the same calls renosweep makes: parse, expand,
// run on the bounded pool, and emit deterministically. A slice's cells are
// its benchmark's block of the full grid (Expand is bench-major), so one
// sweep yields every reference. When put is non-nil it receives every
// completed cell under its run key, as the service's store does. It fails
// on a failed run or an audit warning.
func (s *screen) reference(ctx context.Context, put func(key string, r *sweep.Result)) error {
	grid, err := sweep.ParseGridJSON(s.full)
	if err != nil {
		return err
	}
	jobs, err := grid.Expand()
	if err != nil {
		return err
	}
	opts := grid.Options()
	if put != nil {
		opts.Progress = func(ri sweep.RunInfo) { put(ri.Key, ri.Result) }
	}
	results := sweep.RunContext(ctx, jobs, opts)
	sum := sweep.Summarize(results)
	if sum.Failed > 0 || sum.Warnings > 0 {
		return fmt.Errorf("reference sweep: %d failed runs, %d audit warnings", sum.Failed, sum.Warnings)
	}
	if s.refFull, err = stableEnvelope(grid, results); err != nil {
		return err
	}
	s.refSlices = map[string][]byte{}
	for bench, spec := range s.slices {
		g, err := sweep.ParseGridJSON(spec)
		if err != nil {
			return err
		}
		var block []*sweep.Result
		for _, r := range results {
			if r.Bench == bench {
				block = append(block, r)
			}
		}
		if s.refSlices[bench], err = stableEnvelope(g, block); err != nil {
			return err
		}
	}
	return nil
}

// stableEnvelope encodes results as renosweep -stable does.
func stableEnvelope(g sweep.Grid, results []*sweep.Result) ([]byte, error) {
	rep, err := sweep.NewReport(g, results).MetricsReport(sweep.EmitOptions{Deterministic: true})
	if err != nil {
		return nil, err
	}
	rep.Tool = "renosweep"
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// warmRequest is one resubmission of the warm mix: the full grid (Bench
// empty) or one benchmark's slice.
type warmRequest struct {
	Bench string
}

// warmMix returns the seeded resubmission sequence: n requests in blocks
// of four, each block one full-grid resubmit and three single-benchmark
// slices in seeded order. Blocks fix the mix at exactly one in four, so
// every seed loads the service alike while the slices drawn still vary.
func warmMix(seed int64, n int) []warmRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	names := benchNames()
	out := make([]warmRequest, 0, n+3)
	for len(out) < n {
		block := []warmRequest{{}, {names[rng.Intn(len(names))]}, {names[rng.Intn(len(names))]}, {names[rng.Intn(len(names))]}}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}
