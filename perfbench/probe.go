package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"reno/internal/backend"
	"reno/internal/harness"
	"reno/internal/machine"
	"reno/internal/service"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// The layer probe follows the workload in a traced run. It calls each
// layer's public function directly on the seed's screening inputs, so that
// layers the program calls internally (where the benchmark cannot place a
// span) and layers this workload never reaches still get measured. A
// per-layer metric comes from the workload's own spans when it has them,
// and from the probe's otherwise.
const (
	probeBackendBenches = 8 // benchmarks timed on each backend
	probeBackendReps    = 3 // repetitions per (benchmark, backend)
	probeSweepBenches   = 2 // benchmarks in the probe's sweep (× 7 configs × 3 seeds)
	probeRepeats        = 3 // repetitions of whole-grid calls (expand, keys, emit)
	probeResubmits      = 5 // resubmits of the probe grid to the probe service
	probeHarnessScale   = 0.02
	probeHarnessMax     = 2000
)

// probeCell is one backend configuration the probe times.
type probeCell struct {
	name    string // span name
	backend backend.Kind
	reno    string
}

var probeCells = []probeCell{
	{"backend.functional.base", backend.Functional, "BASE"},
	{"backend.functional.reno", backend.Functional, "RENO"},
	{"backend.detailed.reno", backend.Detailed, "RENO"},
}

// probe runs the layer probe and returns the metrics it derives directly
// (those that are not a single span's time). Failed checks are recorded in
// out.
func probe(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) (map[string]float64, error) {
	tr.setPhase(phaseProbe)
	defer tr.setPhase(phaseWorkload)
	derived := map[string]float64{}
	s := newScreen(cfg.seed)

	if err := buildPrograms(workload.AllProfiles(), s.seeds[0], tr); err != nil {
		return nil, err
	}
	if err := probeBackends(ctx, cfg.seed, s.seeds[0], tr, derived); err != nil {
		return nil, err
	}
	if err := probeReplays(ctx, s.seeds[0], derived); err != nil {
		return nil, err
	}
	spec, results, keys, err := probeSweep(ctx, cfg.seed, s, tr, derived)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.tmp, "probe-store")
	if err := probeStore(dir, results, keys, tr); err != nil {
		return nil, err
	}
	if cfg.workload == "paper" {
		// The paper workload never reaches the service: resubmit the probe
		// grid to a service warm-loaded from the probe's store.
		if err := probeService(ctx, dir, spec, results, tr, out); err != nil {
			return nil, err
		}
	} else {
		// Only the paper workload runs the harness at full scale.
		regenerate(ctx, io.Discard, harness.Options{Scale: probeHarnessScale, MaxInsts: probeHarnessMax, Parallel: true}, tr, 0)
	}
	return derived, ctx.Err()
}

// probeBackends times the three probe cells on a seeded choice of
// benchmarks and derives the emulator, elimination-engine, pipeline and
// backend costs from their differences: functional BASE runs no engine,
// functional RENO adds the engine, and detailed RENO adds the pipeline.
func probeBackends(ctx context.Context, seed, gridSeed int64, tr *tracer, derived map[string]float64) error {
	profiles := workload.AllProfiles()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(profiles), func(i, j int) { profiles[i], profiles[j] = profiles[j], profiles[i] })
	var insts, cycles float64
	secs := make([]float64, len(probeCells))
	for _, p := range profiles[:probeBackendBenches] {
		prog, err := workload.Build(sweep.SeedProfile(p, gridSeed))
		if err != nil {
			return err
		}
		warm, err := prog.WarmupCount()
		if err != nil {
			return err
		}
		for ci, c := range probeCells {
			rc, err := machine.RenoByName(c.reno)
			if err != nil {
				return err
			}
			mcfg, err := machine.ParseMachine("4w", rc)
			if err != nil {
				return err
			}
			var times []float64
			for rep := 0; rep < probeBackendReps; rep++ {
				sp := tr.begin(c.name, 0, p.Name)
				t0 := time.Now()
				res, err := backend.For(c.backend).Run(ctx, backend.Request{Cfg: mcfg, Code: prog.Code, Warmup: warm, MaxInsts: screenMaxInsts})
				d := time.Since(t0)
				if err != nil {
					return fmt.Errorf("probe %s on %s: %w", c.name, p.Name, err)
				}
				tr.end(sp, int64(res.Pipe.Insts))
				times = append(times, d.Seconds())
				if rep == 0 && ci == len(probeCells)-1 {
					insts += float64(res.Pipe.Insts)
					cycles += float64(res.Pipe.Cycles)
				}
			}
			secs[ci] += median(times)
		}
	}
	base, reno, detailed := secs[0], secs[1], secs[2]
	derived["emu.mips"] = insts / base / 1e6
	derived["elim.ns_per_inst"] = (reno - base) / insts * 1e9
	derived["pipeline.ns_per_inst"] = (detailed - reno) / insts * 1e9
	derived["pipeline.ns_per_cycle"] = (detailed - reno) / cycles * 1e9
	derived["backend.detailed_mips"] = insts / detailed / 1e6
	derived["backend.functional_mips"] = insts / reno / 1e6
	derived["backend.functional_speedup"] = detailed / reno
	return nil
}

// probeReplays counts the pipeline's squash-replays per 1,000 committed
// instructions over one detailed BASE run of every benchmark, untimed: the
// count is a simulated statistic. It is taken on BASE, the baseline every
// figure of the paper compares against, because under RENO these programs
// never violate memory order, so the RENO cells timed above replay nothing.
// About half the benchmarks replay under BASE, so the sum over all of them
// is not 0; the probe fails if it ever is.
func probeReplays(ctx context.Context, gridSeed int64, derived map[string]float64) error {
	rc, err := machine.RenoByName("BASE")
	if err != nil {
		return err
	}
	mcfg, err := machine.ParseMachine("4w", rc)
	if err != nil {
		return err
	}
	var insts, replays float64
	for _, p := range workload.AllProfiles() {
		prog, err := workload.Build(sweep.SeedProfile(p, gridSeed))
		if err != nil {
			return err
		}
		warm, err := prog.WarmupCount()
		if err != nil {
			return err
		}
		res, err := backend.For(backend.Detailed).Run(ctx, backend.Request{Cfg: mcfg, Code: prog.Code, Warmup: warm, MaxInsts: screenMaxInsts})
		if err != nil {
			return fmt.Errorf("probe replays on %s: %w", p.Name, err)
		}
		insts += float64(res.Pipe.Insts)
		replays += float64(res.Pipe.Replays)
	}
	if replays == 0 {
		return fmt.Errorf("probe replays: no detailed BASE run replayed over %.0f instructions", insts)
	}
	derived["pipeline.replays_per_kinst"] = replays / insts * 1e3
	return nil
}

// probeSweep times the sweep layer: parsing and expanding the full grid,
// computing every cell's run key, running a small seeded sub-grid on the
// pool, and encoding, decoding and emitting its results. It returns the
// sub-grid's spec, results and run keys for the store and service probes.
func probeSweep(ctx context.Context, seed int64, s *screen, tr *tracer, derived map[string]float64) ([]byte, []*sweep.Result, []string, error) {
	var jobs []sweep.Job
	var grid sweep.Grid
	for i := 0; i < probeRepeats; i++ {
		sp := tr.begin("sweep.expand", 0, "")
		var err error
		if grid, err = sweep.ParseGridJSON(s.full); err != nil {
			return nil, nil, nil, err
		}
		if jobs, err = grid.Expand(); err != nil {
			return nil, nil, nil, err
		}
		tr.end(sp, int64(len(jobs)))

		sp = tr.begin("sweep.key", 0, "")
		distinct := map[string]bool{}
		for _, j := range jobs {
			distinct[j.Key(grid.Options())] = true
		}
		tr.end(sp, int64(len(jobs)))
		if len(distinct) != len(jobs) {
			return nil, nil, nil, fmt.Errorf("probe: %d run keys for %d cells", len(distinct), len(jobs))
		}
	}

	names := benchNames()
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	spec := screenGrid(names[:probeSweepBenches], s.seeds)
	sub, err := sweep.ParseGridJSON(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	subJobs, err := sub.Expand()
	if err != nil {
		return nil, nil, nil, err
	}
	opts := sub.Options()
	keys := make([]string, len(subJobs))
	opts.Progress = func(ri sweep.RunInfo) { keys[ri.Index] = ri.Key }
	sp := tr.begin("sweep.run", 0, "")
	t0 := time.Now()
	results := sweep.RunContext(ctx, subJobs, opts)
	wall := time.Since(t0)
	tr.end(sp, int64(len(results)))
	var busy int64
	for _, r := range results {
		if r.Err != "" {
			return nil, nil, nil, fmt.Errorf("probe sweep: %s: %s", r.Key(), r.Err)
		}
		busy += r.WallNS
	}
	derived["sweep.pool_busy_frac"] = float64(busy) / (float64(wall.Nanoseconds()) * float64(runtime.GOMAXPROCS(0)))

	for i, r := range results {
		sp := tr.begin("sweep.encode", 0, keys[i])
		data, err := sweep.EncodeResult(keys[i], r)
		tr.end(sp, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		sp = tr.begin("sweep.decode", 0, keys[i])
		_, _, err = sweep.DecodeResult(data)
		tr.end(sp, 1)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i < probeRepeats; i++ {
		sp := tr.begin("sweep.emit", 0, "")
		env, err := stableEnvelope(sub, results)
		tr.end(sp, int64(len(env)))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return spec, results, keys, nil
}

// probeStore writes the probe's results into an empty disk store one
// record at a time, then reads each back.
func probeStore(dir string, results []*sweep.Result, keys []string, tr *tracer) error {
	ds, err := service.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	for i, r := range results {
		sp := tr.begin("store.put", 0, keys[i])
		ds.Put(keys[i], r)
		tr.end(sp, 1)
	}
	for _, k := range keys {
		sp := tr.begin("store.get", 0, k)
		r := ds.Get(k)
		tr.end(sp, 1)
		if r == nil {
			return fmt.Errorf("probe store: %s written but not read back", k)
		}
	}
	return nil
}

// probeService warm-loads a service from the probe's store and resubmits
// the probe grid over HTTP; each resubmit must be served from the cache
// with renosweep -stable's envelope.
func probeService(ctx context.Context, dir string, spec []byte, results []*sweep.Result, tr *tracer, out *outcome) error {
	grid, err := sweep.ParseGridJSON(spec)
	if err != nil {
		return err
	}
	want, err := stableEnvelope(grid, results)
	if err != nil {
		return err
	}
	srv, err := startServer(service.Config{StoreDir: dir}, tr)
	if err != nil {
		return err
	}
	defer srv.close()
	cl := newClient(srv.base, tr)
	for i := 0; i < probeResubmits; i++ {
		out.attempted++
		r, err := cl.sweep(ctx, spec, fmt.Sprintf("probe-%d", i))
		if err == nil {
			err = checkWarm(r, want)
		}
		if err != nil {
			out.fail("probe resubmit %d: %v", i, err)
		}
	}
	return srv.close()
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	tr := newTracer(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("calibrate", 0, ""), 1)
	}
	return time.Since(t0) / n
}
