package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"reno/internal/service"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// minWarmResubmits is the fewest resubmits a serve_warm run completes, so
// that at least ten latency samples lie beyond its p90.
const minWarmResubmits = 100

// prepareScreen is the screening workloads' set-up: derive the grid from
// the seed, check that it parses and expands through the sweep layer, and
// build its seeded programs.
func prepareScreen(seed int64, tr *tracer) (*screen, error) {
	s := newScreen(seed)
	sp := tr.begin("sweep.expand", 0, "")
	g, err := sweep.ParseGridJSON(s.full)
	if err != nil {
		return nil, err
	}
	jobs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	tr.end(sp, int64(len(jobs)))
	for _, gs := range s.seeds {
		if err := buildPrograms(workload.AllProfiles(), gs, tr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkCold checks one cold sweep's reply: it finished done, simulated
// every cell, and no run failed or warned.
func checkCold(r *sweepReply) error {
	st := r.Status
	if r.State != service.StateDone || st.State != service.StateDone {
		return fmt.Errorf("sweep %s ended %s", r.ID, r.State)
	}
	if st.Failed != 0 || st.AuditWarnings != 0 {
		return fmt.Errorf("sweep %s: %d failed runs, %d audit warnings", r.ID, st.Failed, st.AuditWarnings)
	}
	if st.Simulated != st.Runs || st.CacheHits != 0 {
		return fmt.Errorf("sweep %s: cold sweep simulated %d of %d cells (%d cache hits)", r.ID, st.Simulated, st.Runs, st.CacheHits)
	}
	return nil
}

// coldPass screens the seed's whole grid once, cold: it opens a service
// over an empty store directory and submits the grid one benchmark's slice
// at a time over HTTP, each time waiting for the terminal event and
// fetching the results. Each slice is one operation, timed by the client
// from submit to results received. It returns each slice's envelope digest.
func coldPass(ctx context.Context, s *screen, dir string, tr *tracer, out *outcome) (map[string][32]byte, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := startServer(service.Config{StoreDir: dir}, tr)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	cl := newClient(srv.base, tr)
	digests := map[string][32]byte{}
	for _, b := range benchNames() {
		out.attempted++
		r, err := cl.sweep(ctx, s.slices[b], b)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			out.fail("cold %s: %v", b, err)
			continue
		}
		out.latencies = append(out.latencies, r.Latency.Seconds())
		if err := checkCold(r); err != nil {
			out.fail("cold %s: %v", b, err)
			continue
		}
		digests[b] = sha256.Sum256(r.Results)
	}
	if err := srv.close(); err != nil {
		return nil, err
	}
	return digests, os.RemoveAll(dir)
}

// runScreenCold is the cold screening workload: one client screens the
// seed's 714-cell functional grid into a fresh service with an empty
// store, as 34 single-benchmark slices submitted back to back, and starts
// another pass with a new empty store while the run's time is not up.
// Every slice's envelope must equal renosweep -stable's for that slice,
// computed after the timed loop.
func runScreenCold(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var s *screen
	for i := 0; i < setupRepeats; i++ {
		t0 := setupStart()
		var err error
		if s, err = prepareScreen(cfg.seed, tr); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}

	var passes []map[string][32]byte
	start, alloc0 := time.Now(), heapAllocMB()
	for len(passes) == 0 || time.Since(start) < cfg.seconds {
		digests, err := coldPass(ctx, s, filepath.Join(cfg.tmp, "store"), tr, out)
		if err != nil {
			return nil, err
		}
		passes = append(passes, digests)
	}
	out.measured, out.allocMB = time.Since(start), heapAllocMB()-alloc0

	if err := s.reference(ctx, nil); err != nil {
		return nil, err
	}
	for _, digests := range passes {
		for b, d := range digests {
			if d != sha256.Sum256(s.refSlices[b]) {
				out.fail("cold %s: envelope differs from renosweep -stable", b)
			}
		}
	}
	return out, nil
}

// runServeWarm is the warm resubmission workload. The renosweep -stable
// reference sweep of the seed's grid first fills a store directory. Set-up
// then starts the service over that store, which warm-loads every result.
// Then one closed-loop client resubmits the seeded mix of full grids and
// single-benchmark slices until the run's time is up and at least 100
// resubmits are done. Every resubmit must be served wholly from the cache
// and return renosweep -stable's envelope for its grid.
//
// The loop has one client, not one per vCPU: with two, a slice's latency
// depended on whether it happened to overlap the other client's full-grid
// emission, and the median moved by 40% between runs.
func runServeWarm(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{}
	s := newScreen(cfg.seed)
	store := filepath.Join(cfg.tmp, "store")
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	// The reference sweep fills the store as the service would: every
	// completed cell is put under its run key. Cold sweeps into a store are
	// screen_cold's to measure, so this one is not timed.
	ds, err := service.OpenDiskStore(store)
	if err != nil {
		return nil, err
	}
	if err := s.reference(ctx, ds.Put); err != nil {
		return nil, err
	}
	if st := ds.Stats(); st.Writes == 0 || st.WriteErrors != 0 {
		return nil, fmt.Errorf("fill the store: %d writes, %d write errors", st.Writes, st.WriteErrors)
	}

	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		t0 := setupStart()
		if srv, err = startServer(service.Config{StoreDir: store}, tr); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer srv.close()

	cl := newClient(srv.base, tr)
	start, alloc0 := time.Now(), heapAllocMB()
	for i, req := range warmMix(cfg.seed, 1<<16) {
		if ctx.Err() != nil || (i >= minWarmResubmits && time.Since(start) >= cfg.seconds) {
			break
		}
		spec, want := s.full, s.refFull
		if req.Bench != "" {
			spec, want = s.slices[req.Bench], s.refSlices[req.Bench]
		}
		out.attempted++
		r, err := cl.sweep(ctx, spec, fmt.Sprint(i))
		if err == nil {
			out.latencies = append(out.latencies, r.Latency.Seconds())
			err = checkWarm(r, want)
		}
		if err != nil {
			out.fail("resubmit %d: %v", i, err)
		}
	}
	out.measured, out.allocMB = time.Since(start), heapAllocMB()-alloc0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, srv.close()
}

// checkWarm checks one resubmit: served wholly from the cache, finished
// done, and the envelope renosweep -stable emits for the grid.
func checkWarm(r *sweepReply, want []byte) error {
	st := r.Status
	if r.State != service.StateDone || st.State != service.StateDone || st.Failed != 0 || st.AuditWarnings != 0 {
		return fmt.Errorf("sweep %s ended %s (%d failed, %d audit warnings)", r.ID, st.State, st.Failed, st.AuditWarnings)
	}
	if st.CacheHits != st.Runs || st.Simulated != 0 {
		return fmt.Errorf("sweep %s: %d of %d cells from cache, %d simulated", r.ID, st.CacheHits, st.Runs, st.Simulated)
	}
	if !bytes.Equal(r.Results, want) {
		return fmt.Errorf("sweep %s: envelope differs from renosweep -stable", r.ID)
	}
	return nil
}
