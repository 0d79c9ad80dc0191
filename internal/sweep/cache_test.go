package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"reno/internal/backend"
)

// cacheGrid is a small two-config grid used by the cache-seam tests.
func cacheGrid(t *testing.T) []Job {
	t.Helper()
	g := Grid{
		Benches:        []string{"gzip", "gsm.de"},
		MachineConfigs: Specs("4w"),
		RenoConfigs:    Specs("BASE", "RENO"),
		Scale:          0.3,
		MaxInsts:       20000,
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestJobKeyStability pins the run-key contract: equal inputs hash equally,
// and every outcome-determining input — seed, scale, budget, configuration
// — splits the key, while scheduling knobs do not.
func TestJobKeyStability(t *testing.T) {
	jobs := cacheGrid(t)
	opts := Options{Scale: 0.3, MaxInsts: 20000}

	if a, b := jobs[0].Key(opts), jobs[0].Key(opts); a != b {
		t.Fatalf("key not deterministic: %s vs %s", a, b)
	}
	if a, b := jobs[0].Key(opts), jobs[0].Key(Options{Scale: 0.3, MaxInsts: 20000, Workers: 7}); a != b {
		t.Errorf("worker count changed the key: %s vs %s", a, b)
	}
	seen := map[string]int{}
	for i, j := range jobs {
		k := j.Key(opts)
		if prev, dup := seen[k]; dup {
			t.Errorf("jobs %d and %d share key %s", prev, i, k)
		}
		seen[k] = i
	}
	diff := []struct {
		name string
		opts Options
	}{
		{"scale", Options{Scale: 0.5, MaxInsts: 20000}},
		{"max insts", Options{Scale: 0.3, MaxInsts: 10000}},
	}
	for _, d := range diff {
		if jobs[0].Key(opts) == jobs[0].Key(d.opts) {
			t.Errorf("%s change did not change the key", d.name)
		}
	}
	seeded := jobs[0]
	seeded.Seed = 3
	if jobs[0].Key(opts) == seeded.Key(opts) {
		t.Error("seed change did not change the key")
	}
	retuned := jobs[0]
	retuned.Cfg.ROBSize *= 2
	if jobs[0].Key(opts) == retuned.Key(opts) {
		t.Error("resolved-configuration change did not change the key")
	}
}

// TestLookupSeamServesFromCache proves the cache seam end-to-end at the
// pool level: a second sweep whose Lookup serves the first sweep's results
// simulates nothing, reports every run as cached with the same keys, and
// still emits byte-identical stable output.
func TestLookupSeamServesFromCache(t *testing.T) {
	jobs := cacheGrid(t)
	opts := Options{Workers: 2, Scale: 0.3, MaxInsts: 20000}

	cache := map[string]*Result{}
	opts.Progress = func(ri RunInfo) {
		if ri.Cached {
			t.Errorf("run %d reported cached on the cold sweep", ri.Index)
		}
		if ri.Result.Err == "" {
			cache[ri.Key] = ri.Result
		}
	}
	cold := RunContext(context.Background(), jobs, opts)
	if len(cache) != len(jobs) {
		t.Fatalf("cold sweep cached %d of %d runs", len(cache), len(jobs))
	}

	simulated := 0
	warm := RunContext(context.Background(), jobs, Options{
		Workers: 2, Scale: 0.3, MaxInsts: 20000,
		Lookup: func(key string) *Result { return cache[key] },
		Progress: func(ri RunInfo) {
			if !ri.Cached {
				simulated++
			}
			if cache[ri.Key] != ri.Result {
				t.Errorf("run %d: cached result not served verbatim", ri.Index)
			}
		},
	})
	if simulated != 0 {
		t.Fatalf("warm sweep simulated %d runs, want 0", simulated)
	}
	for i, r := range warm {
		if r != cold[i] {
			t.Errorf("run %d: warm result is not the cached cold result", i)
		}
	}

	g := Grid{Benches: []string{"gzip", "gsm.de"}, MachineConfigs: Specs("4w"),
		RenoConfigs: Specs("BASE", "RENO"), Scale: 0.3, MaxInsts: 20000}
	var a, b bytes.Buffer
	if err := NewReport(g, cold).WriteJSON(&a, EmitOptions{Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	if err := NewReport(g, warm).WriteJSON(&b, EmitOptions{Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("stable emission differs between simulated and cache-served sweeps")
	}
}

// TestPartiallyCachedSweep mixes hits and misses on both backends: only
// the misses simulate, hits are served verbatim, and the combined results
// emit byte-identically to an uncached sweep of the same grid. On the
// functional backend each program's group then holds only its misses.
func TestPartiallyCachedSweep(t *testing.T) {
	for name, be := range map[string]backend.Kind{"detailed": backend.Detailed, "functional": backend.Functional} {
		t.Run(name, func(t *testing.T) {
			jobs := cacheGrid(t)
			for i := range jobs {
				jobs[i].Backend = be
			}
			opts := Options{Workers: 2, Scale: 0.3, MaxInsts: 20000}

			cache := map[string]*Result{}
			opts.Progress = func(ri RunInfo) { cache[ri.Key] = ri.Result }
			cold := RunContext(context.Background(), jobs, opts)

			// Evict every other entry, then rerun with the thinned cache.
			evicted := 0
			for i, j := range jobs {
				if i%2 == 1 {
					delete(cache, j.Key(opts))
					evicted++
				}
			}
			hits, misses := 0, 0
			warm := RunContext(context.Background(), jobs, Options{
				Workers: 2, Scale: 0.3, MaxInsts: 20000,
				Lookup: func(key string) *Result { return cache[key] },
				Progress: func(ri RunInfo) {
					if ri.Cached {
						hits++
					} else {
						misses++
					}
				},
			})
			if misses != evicted || hits != len(jobs)-evicted {
				t.Fatalf("got %d hits / %d misses, want %d / %d", hits, misses, len(jobs)-evicted, evicted)
			}

			g := Grid{Benches: []string{"gzip", "gsm.de"}, MachineConfigs: Specs("4w"),
				RenoConfigs: Specs("BASE", "RENO"), Scale: 0.3, MaxInsts: 20000, Backend: backendName(be)}
			var a, b bytes.Buffer
			if err := NewReport(g, cold).WriteJSON(&a, EmitOptions{Deterministic: true}); err != nil {
				t.Fatal(err)
			}
			if err := NewReport(g, warm).WriteJSON(&b, EmitOptions{Deterministic: true}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("stable emission differs between uncached and partially cached sweeps")
			}
		})
	}
}

// TestCachedResubmitSettlesInJobOrder: a fully cached resubmission is
// settled before the pool, serially: Progress sees every run as cached,
// in job order, and no workload is built or warmed.
func TestCachedResubmitSettlesInJobOrder(t *testing.T) {
	jobs, err := Grid{
		Benches:        []string{"gzip", "gsm.de"},
		MachineConfigs: Specs("4w", "6w"),
		RenoConfigs:    Specs("BASE", "RENO"),
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 4, Scale: 0.3, MaxInsts: 20000}
	cache := map[string]*Result{}
	opts.Progress = func(ri RunInfo) { cache[ri.Key] = ri.Result }
	RunContext(context.Background(), jobs, opts)

	// A context that never closes, counting its Done calls: every warmup
	// (and every simulation) asks for it.
	ctx := &lateCancel{Context: context.Background(), n: -1, done: make(chan struct{})}
	var order []int
	opts.Lookup = func(key string) *Result { return cache[key] }
	opts.Progress = func(ri RunInfo) {
		if !ri.Cached || ri.Done != len(order)+1 {
			t.Errorf("run %d: cached %v, done %d after %d runs", ri.Index, ri.Cached, ri.Done, len(order))
		}
		order = append(order, ri.Index)
	}
	RunContext(ctx, jobs, opts)
	if len(order) != len(jobs) {
		t.Fatalf("Progress saw %d runs, want %d", len(order), len(jobs))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("Progress order %v, want job order", order)
		}
	}
	if ctx.calls != 0 {
		t.Errorf("the sweep asked for Done %d times; a fully cached sweep warms and runs nothing", ctx.calls)
	}
}

// TestRunKeysAllocateOnlyTheirString: Job.key and hashResult hash their
// fields in place, numbers included, so the 16-digit string each returns
// is its one allocation.
func TestRunKeysAllocateOnlyTheirString(t *testing.T) {
	j := cacheGrid(t)[0]
	j.Seed, j.Backend = 3, backend.Functional
	opts := Options{Scale: 0.3, MaxInsts: 20000}
	cfg, err := json.Marshal(j.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = j.key(opts, cfg, nil) }); n != 1 {
		t.Errorf("Job.key allocates %v times, want 1", n)
	}
	r := &Result{Bench: "gzip", Suite: "SPECint", Config: "RENO", Seed: 3, Backend: "functional",
		Cycles: 1234, Insts: 1000, IPC: 0.81, ElimME: 12.5, BranchAccuracy: 0.97, ArchHash: "00000000000000aa"}
	if n := testing.AllocsPerRun(100, func() { _ = hashResult(r) }); n != 1 {
		t.Errorf("hashResult allocates %v times, want 1", n)
	}
}
