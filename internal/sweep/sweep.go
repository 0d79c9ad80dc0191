// Package sweep executes declarative experiment grids on a bounded worker
// pool and emits machine-readable results.
//
// A Grid names benchmarks, machine configurations, RENO configurations, and
// seeds; Expand crosses them into Jobs; Run executes the jobs on a fixed
// number of workers (default runtime.GOMAXPROCS) pulling units of work from
// a channel, so a ten-thousand-run sweep costs tens of goroutines, not ten
// thousand. A unit is a batch of contiguous jobs, or a group of functional
// jobs of one program that share one trace feed. Every run is seeded
// deterministically from its (benchmark, seed) pair, timed individually,
// and summarized by a stable FNV-1a hash over its architectural and
// performance outcome — the hash is independent of worker count and
// wall-clock, so two sweeps of the same grid can be diffed run-by-run
// regardless of how they were scheduled.
//
// The harness package's figure generators run on top of this pool; the
// renosweep command exposes it directly.
//
//reno:deterministic
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"time"

	"reno/internal/backend"
	"reno/internal/emu"
	"reno/internal/pipeline"
	"reno/internal/workload"
	"reno/metrics"
)

// Job is one pending (benchmark, machine, RENO config, seed) simulation.
// Profile carries the benchmark's base profile; Seed is the grid's seed
// offset, applied to the profile's own seed when the workload is built.
type Job struct {
	Profile workload.Profile
	Machine string // machine spec tag ("4w", "4w:p128", ... or free-form)
	Config  string // RENO configuration tag
	Seed    int64  // seed offset (0 = the profile's canonical program)
	Cfg     pipeline.Config
	// Backend is the simulation fidelity in normalized form: the canonical
	// name of a non-default backend ("functional"), or "" for the
	// detailed pipeline (see NormalizeBackend — the normalization is what
	// keeps pre-backend run keys and cache entries valid).
	Backend string
}

// Tag returns the run's configuration axis label: "machine/config", with
// "@s<seed>" appended for non-zero seeds. When no machine spec was recorded
// (low-level callers that prebuilt their own Cfg), Config is taken verbatim
// as the caller's complete tag, seed suffix included if the caller wanted
// one.
func (j Job) Tag() string {
	if j.Machine == "" {
		return j.Config
	}
	tag := j.Machine + "/" + j.Config
	if j.Seed != 0 {
		tag += "@s" + strconv.FormatInt(j.Seed, 10)
	}
	return tag
}

// Key returns the run's stable cache identity: an FNV-1a 64 hash over every
// input that determines the run's deterministic outcome — the workload
// identity (benchmark name, suite, seed offset, scale), the timed
// instruction budget, both configuration tags, and the fully resolved
// machine configuration in its canonical JSON form. Two jobs with equal
// keys produce byte-identical stable result records, which is what makes
// the key safe as a result-cache address (internal/service uses it so
// resubmitted grid cells are served instead of re-simulated). Scheduling
// knobs (Workers, Timeout, hooks) are deliberately excluded: they never
// change a successful run's outcome. Hand-built Profiles must carry
// distinct Names — the profile's generator parameters are identified by
// name, not hashed field-by-field.
func (j Job) Key(opts Options) string {
	cfg, err := json.Marshal(j.Cfg)
	return j.key(opts, cfg, err)
}

// key is Key over j.Cfg's canonical JSON form cfg, or its marshal error.
func (j Job) key(opts Options, cfg []byte, cfgErr error) string {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	write(j.Profile.Name, j.Profile.Suite, j.Machine, j.Config)
	write(strconv.FormatInt(j.Seed, 10),
		strconv.FormatFloat(scaleOf(opts), 'g', -1, 64),
		strconv.FormatUint(opts.MaxInsts, 10))
	if j.Backend != "" {
		// Folded only for non-default backends: a detailed job's key is
		// byte-identical to its pre-backend form, so existing caches and
		// persistent stores stay valid — while runs of the same cell at
		// different fidelities can never serve each other (their timing
		// fields legitimately differ).
		write("backend", j.Backend)
	}
	if cfgErr == nil {
		h.Write(cfg)
	} else {
		write("cfg-error", cfgErr.Error())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Result is one completed run. The scalar fields form the stable
// machine-readable record (serialized through the reno.metrics/v1 envelope
// and the CSV view; see emit.go); Pipeline retains the full simulator
// result for in-process consumers (tables, audits) and richer emission.
type Result struct {
	Bench   string
	Suite   string
	Machine string
	Config  string
	Seed    int64
	// Backend is the run's simulation fidelity in normalized form ("" =
	// detailed), mirrored from Job.Backend.
	Backend string

	Cycles uint64
	Insts  uint64
	IPC    float64

	ElimME    float64
	ElimCF    float64
	ElimLoads float64
	ElimALU   float64
	ElimTotal float64

	BranchAccuracy float64

	// ArchHash is the final architectural state hash (the cross-config
	// equivalence witness); Hash is the stable per-run result hash over
	// every deterministic field above.
	ArchHash string
	Hash     string

	// Wall-clock telemetry; excluded from Hash by construction and zeroed
	// by deterministic emission modes.
	WallNS         int64
	SimInstsPerSec float64

	Err string

	Pipeline *pipeline.Result
	archHash uint64
	// buildFailed marks Err as a workload construction failure (the
	// program never ran) rather than a simulation error.
	buildFailed bool
	// restored carries the full pipeline metric set (and stop reason)
	// captured when the result was encoded for a persistent store
	// (codec.go). A decoded result has no live Pipeline, but emits the
	// identical envelope record through this set instead.
	restored     *metrics.Set
	restoredStop string
}

// BuildFailed reports whether the run's workload could not even be built.
// For static grids that is a programming error: the paper's figures
// (internal/harness) panic on it rather than render a blank table cell.
func (r *Result) BuildFailed() bool { return r.buildFailed }

// Key identifies the run within a sweep: bench/tag.
func (r *Result) Key() string { return r.Bench + "/" + r.Tag() }

// Tag mirrors Job.Tag for a completed run.
func (r *Result) Tag() string {
	return Job{Machine: r.Machine, Config: r.Config, Seed: r.Seed}.Tag()
}

// ArchHashU64 returns the raw architectural state hash.
func (r *Result) ArchHashU64() uint64 { return r.archHash }

// RunInfo describes one completed run to the Progress hook: pool progress
// counters, the run's position and stable cache key, whether it was served
// from Options.Lookup instead of simulated, and the result itself.
type RunInfo struct {
	Done  int // completed runs including this one
	Total int // total runs in the sweep
	Index int // the run's job index (its position in the results slice)
	// Key is the run's stable cache identity (Job.Key under this sweep's
	// options).
	Key string
	// Cached reports that the run was served by Options.Lookup rather
	// than simulated.
	Cached bool
	Result *Result
}

// Options controls pool execution.
type Options struct {
	// Workers bounds pool concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Scale multiplies every workload's iteration count before building.
	Scale float64
	// MaxInsts caps timed instructions per run (0 = to completion).
	MaxInsts uint64
	// Timeout bounds each run's wall-clock time (0 = none). A run that
	// exceeds it is recorded as failed with its partial statistics;
	// because the cutoff is wall-clock, timed-out runs are not
	// deterministic across machines. A functional group's members share
	// one budget of Timeout times their count.
	Timeout time.Duration
	// Progress, when non-nil, is called once per completed run, serialized
	// by the pool (no locking needed in the callback).
	Progress func(RunInfo)
	// Lookup, when non-nil, is consulted once per job — with the job's
	// stable cache key — before the pool builds or simulates anything;
	// returning a non-nil Result serves the run from cache. The caller
	// must only return results recorded under the same key (same
	// benchmark, seed, scale, budget, and resolved configuration): the
	// pool trusts the hit and re-verifies nothing. Lookup is called
	// serially during sweep setup, so it needs no internal locking against
	// the pool.
	Lookup func(key string, j Job) *Result
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// built is one workload image shared by every run of a (bench, seed) pair,
// with its post-warmup snapshot: every run starts from a private copy of
// it, so the warmup runs once per program, not once per run.
type built struct {
	prog  *workload.Program
	start *emu.Snapshot
	err   error
}

// buildKey identifies a distinct workload build.
func buildKey(p workload.Profile, seed int64) string {
	return p.Name + "@" + strconv.FormatInt(seed, 10)
}

// SeedProfile returns the profile that run seed `seed` of base profile p
// actually executes: seed 0 is the canonical program; other seeds shift the
// generator seed by a fixed prime stride so neighboring profiles (whose
// canonical seeds are adjacent small integers) never collide.
func SeedProfile(p workload.Profile, seed int64) workload.Profile {
	p.Seed += seed * 7919
	return p
}

// Run executes jobs on the bounded pool and returns one Result per job, in
// job order regardless of scheduling. It is RunContext without
// cancellation.
func Run(jobs []Job, opts Options) []*Result {
	return RunContext(context.Background(), jobs, opts)
}

// RunIndices executes the cells of jobs selected by indices — the
// batch-of-cells entry point a cluster worker runs its leased batches
// through (internal/cluster). It returns one Result per index, in index
// order, with every RunContext guarantee intact: deterministic outcomes,
// the Lookup cache seam, and serialized Progress — except that
// RunInfo.Index reports the cell's position in the full jobs slice (its
// cluster-wide cell index), not its position within the batch, so hooks
// can address the cell the coordinator named. Done/Total count within the
// batch. Indices out of range panic: a lease naming cells the grid does
// not have is a protocol violation, not a runtime condition.
func RunIndices(ctx context.Context, jobs []Job, indices []int, opts Options) []*Result {
	subset := make([]Job, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(jobs) {
			panic(fmt.Sprintf("sweep.RunIndices: cell index %d out of range [0,%d)", idx, len(jobs)))
		}
		subset[i] = jobs[idx]
	}
	if inner := opts.Progress; inner != nil {
		opts.Progress = func(ri RunInfo) {
			ri.Index = indices[ri.Index]
			inner(ri)
		}
	}
	return RunContext(ctx, subset, opts)
}

// NewErrorResult renders a job that never executed as a failed Result: the
// job's identity fields, the error, and the stable result hash — exactly
// the record the pool emits for a job it could not start (a canceled
// sweep, a scheduler-level failure). The cluster coordinator uses it to
// settle cells whose sweep was canceled or whose retries were exhausted.
func NewErrorResult(j Job, msg string) *Result {
	r := newResult(j)
	r.Err = msg
	r.Hash = hashResult(r)
	return r
}

// RunContext executes jobs on the bounded pool under ctx. The uncached
// functional jobs of each (bench, seed) program run as one group over one
// trace feed (backend.RunGroup), split into parts when there are fewer
// groups than twice the worker count; each still gets the Result it would
// get alone. When ctx is canceled, in-flight simulations stop promptly and
// record their partial statistics with Err set; jobs not yet started are
// marked canceled without running. RunContext always waits for its
// workers to exit before returning, so no goroutines outlive the call, and
// every slot in the returned slice is non-nil.
func RunContext(ctx context.Context, jobs []Job, opts Options) []*Result {
	results := make([]*Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	// Resolve cache keys and hits up front, serially: hooks see each key
	// exactly once, and fully cached (bench, seed) groups skip the
	// workload build below entirely.
	var keys []string
	if opts.Progress != nil || opts.Lookup != nil {
		keys = make([]string, len(jobs))
		// Cells share resolved configurations (one per machine × RENO
		// pair), so each distinct one is marshaled once.
		type canonical struct {
			cfg []byte
			err error
		}
		resolved := map[pipeline.Config]canonical{}
		for i, j := range jobs {
			c, ok := resolved[j.Cfg]
			if !ok {
				c.cfg, c.err = json.Marshal(j.Cfg)
				resolved[j.Cfg] = c
			}
			keys[i] = j.key(opts, c.cfg, c.err)
		}
	}
	var cached []*Result
	if opts.Lookup != nil {
		cached = make([]*Result, len(jobs))
		for i, j := range jobs {
			cached[i] = opts.Lookup(keys[i], j)
		}
	}
	fromCache := func(i int) *Result {
		if cached == nil {
			return nil
		}
		return cached[i]
	}

	// Build and warm up each distinct (bench, seed) workload once, before
	// the pool starts: builds are cheap relative to simulation, and a
	// serial prebuild keeps the build cache free of locking entirely. The
	// warmup polls ctx; once ctx is done the prebuild stops, and every job
	// it leaves unbuilt is reported canceled without running (skip).
	builds := map[string]*built{}
	for i, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		if fromCache(i) != nil {
			continue
		}
		k := buildKey(j.Profile, j.Seed)
		if _, ok := builds[k]; ok {
			continue
		}
		b := &built{}
		b.prog, b.err = workload.Build(workload.Scale(SeedProfile(j.Profile, j.Seed), scaleOf(opts)))
		if b.err == nil {
			b.start, b.err = b.prog.Warm(ctx)
		}
		builds[k] = b
	}

	// Uncached functional cells of one (bench, seed) program decide the
	// same instruction stream, so each such set runs as one group over one
	// trace feed (runGroup). Every other cell, detailed or served from
	// cache, runs on its own.
	var singles []int
	var groups [][]int
	slot := map[string]int{}
	for i, j := range jobs {
		if kind, err := backend.ParseKind(j.Backend); err != nil || kind != backend.Functional || fromCache(i) != nil {
			singles = append(singles, i)
			continue
		}
		k := buildKey(j.Profile, j.Seed)
		g, ok := slot[k]
		if !ok {
			g = len(groups)
			slot[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	// A unit of pool work is a group, or part of one, or a batch of
	// contiguous singles: a fixed worker count and coarse batches keep
	// goroutine and channel traffic bounded even for sweeps with thousands
	// of runs. With fewer than two groups per worker, groups are split into
	// parts so that no worker idles while another drains a long group. A
	// part takes every p-th member, not a contiguous run: grids list
	// configurations from the cheapest (BASE needs no engine) to the
	// costliest, and striding gives every part a similar mix.
	workers := min(opts.workers(), len(jobs))
	parts := 1
	if len(groups) > 0 && len(groups) < 2*workers {
		parts = (2*workers + len(groups) - 1) / len(groups)
	}
	batch := max(1, len(singles)/(workers*8))
	type unit struct {
		idx   []int // job indices
		group bool  // idx share one trace feed; otherwise each runs alone
	}
	var units []unit
	for _, g := range groups {
		p := min(parts, len(g))
		for k := 0; k < p; k++ {
			var part []int
			for m := k; m < len(g); m += p {
				part = append(part, g[m])
			}
			units = append(units, unit{part, true})
		}
	}
	for lo := 0; lo < len(singles); lo += batch {
		units = append(units, unit{singles[lo:min(lo+batch, len(singles))], false})
	}
	work := make(chan unit, len(units))
	for _, u := range units {
		work <- u
	}
	close(work)

	var mu sync.Mutex // guards done counter + Progress serialization
	done := 0
	finish := func(i int, r *Result, hit bool) {
		results[i] = r
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress != nil {
			opts.Progress(RunInfo{Done: done, Total: len(jobs), Index: i, Key: keys[i], Cached: hit, Result: r})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				if u.group {
					j := jobs[u.idx[0]]
					for k, r := range runGroup(ctx, jobs, u.idx, builds[buildKey(j.Profile, j.Seed)], opts) {
						finish(u.idx[k], r, false)
					}
					continue
				}
				for _, i := range u.idx {
					r, hit := fromCache(i), true
					if r == nil {
						r, hit = runOne(ctx, jobs[i], builds[buildKey(jobs[i].Profile, jobs[i].Seed)], opts), false
					}
					finish(i, r, hit)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

func scaleOf(o Options) float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// newResult returns j's record with only its identity filled in.
func newResult(j Job) *Result {
	return &Result{
		Bench:   j.Profile.Name,
		Suite:   j.Profile.Suite,
		Machine: j.Machine,
		Config:  j.Config,
		Seed:    j.Seed,
		Backend: j.Backend,
	}
}

// skip records r as a run that never started and reports true when the
// sweep was canceled before the run started (b is nil when the
// cancellation stopped the prebuild before this run's build) or its
// workload failed to build.
func skip(ctx context.Context, r *Result, b *built) bool {
	switch {
	case ctx.Err() != nil:
		r.Err = ctx.Err().Error()
	case b.err != nil:
		r.Err, r.buildFailed = b.err.Error(), true
	default:
		return false
	}
	r.Hash = hashResult(r)
	return true
}

// withTimeout bounds ctx by d when d is positive.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// runOne executes a single job and fills in its Result.
func runOne(ctx context.Context, j Job, b *built, opts Options) *Result {
	r := newResult(j)
	if skip(ctx, r, b) {
		return r
	}
	kind, err := backend.ParseKind(j.Backend)
	if err != nil {
		// Expand normalizes and validates the grid's backend; only a
		// hand-built Job can carry a bogus name, and it fails like any
		// other per-run configuration error.
		r.Err = err.Error()
		r.Hash = hashResult(r)
		return r
	}
	rctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	//lint:ignore determinism wall time is telemetry only: WallNS is excluded from hashResult and from -stable output
	t0 := time.Now()
	bres, err := backend.For(kind).Run(rctx, backend.Request{
		Cfg: j.Cfg, Start: b.start, MaxInsts: opts.MaxInsts,
	})
	//lint:ignore determinism wall time is telemetry only: WallNS is excluded from hashResult and from -stable output
	record(r, bres, err, time.Since(t0).Nanoseconds())
	return r
}

// runGroup executes the functional jobs idx, which share one (bench, seed)
// program, over one trace feed (backend.RunGroup) and returns their
// Results in idx order: each is the Result runOne returns for its job
// alone. The group's Timeout is opts.Timeout per member, and its wall time
// is split evenly among the members.
func runGroup(ctx context.Context, jobs []Job, idx []int, b *built, opts Options) []*Result {
	out := make([]*Result, len(idx))
	cfgs := make([]pipeline.Config, len(idx))
	for k, i := range idx {
		out[k], cfgs[k] = newResult(jobs[i]), jobs[i].Cfg
	}
	if skip(ctx, out[0], b) {
		for _, r := range out[1:] {
			r.Err, r.buildFailed = out[0].Err, out[0].buildFailed
			r.Hash = hashResult(r)
		}
		return out
	}
	rctx, cancel := withTimeout(ctx, opts.Timeout*time.Duration(len(idx)))
	defer cancel()
	//lint:ignore determinism wall time is telemetry only: WallNS is excluded from hashResult and from -stable output
	t0 := time.Now()
	bres, errs := backend.RunGroup(rctx, backend.Request{Start: b.start, MaxInsts: opts.MaxInsts}, cfgs)
	//lint:ignore determinism wall time is telemetry only: WallNS is excluded from hashResult and from -stable output
	wall := time.Since(t0).Nanoseconds() / int64(len(idx))
	for k, r := range out {
		record(r, bres[k], errs[k], wall)
	}
	return out
}

// record fills r from its backend run, which took wallNS of wall time.
func record(r *Result, bres *backend.Result, err error, wallNS int64) {
	r.WallNS = wallNS
	var res *pipeline.Result
	var archHash uint64
	if bres != nil {
		res, archHash = bres.Pipe, bres.ArchHash
	}
	if err != nil {
		r.Err = err.Error()
		if res != nil {
			// Canceled or timed out mid-run: keep the partial counters
			// for progress reporting, but not the architectural hash —
			// mid-program state is not the equivalence witness Audit
			// compares (Audit already skips runs with Err set).
			r.Cycles = res.Cycles
			r.Insts = res.Insts
			r.IPC = res.IPC
		}
		r.Hash = hashResult(r)
		return
	}
	r.Pipeline = res
	r.Cycles = res.Cycles
	r.Insts = res.Insts
	r.IPC = res.IPC
	r.ElimME = res.ElimME
	r.ElimCF = res.ElimCF
	r.ElimLoads = res.ElimLoads
	r.ElimALU = res.ElimALU
	r.ElimTotal = res.ElimTotal
	r.BranchAccuracy = res.BranchAccuracy
	r.archHash = archHash
	r.ArchHash = fmt.Sprintf("%016x", archHash)
	if r.WallNS > 0 {
		r.SimInstsPerSec = float64(res.Insts) / (float64(r.WallNS) / 1e9)
	}
	r.Hash = hashResult(r)
}

// hashResult computes the stable per-run hash: FNV-1a 64 over a canonical
// rendering of every deterministic field. Wall-clock fields are deliberately
// excluded, so the hash is invariant under worker count and machine load.
func hashResult(r *Result) string {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	write(r.Bench, r.Suite, r.Machine, r.Config, strconv.FormatInt(r.Seed, 10))
	write(strconv.FormatUint(r.Cycles, 10), strconv.FormatUint(r.Insts, 10), f(r.IPC))
	write(f(r.ElimME), f(r.ElimCF), f(r.ElimLoads), f(r.ElimALU), f(r.ElimTotal))
	write(f(r.BranchAccuracy), r.ArchHash, r.Err)
	if r.Backend != "" {
		// Conditional for the same reason Job.Key's backend fold is:
		// detailed runs hash identically to their pre-backend form.
		write("backend", r.Backend)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Audit checks architectural equivalence: every successful run of the same
// (bench, seed) pair — whatever its machine or RENO configuration — must
// reach the same final architectural state. It returns one warning line per
// violating run (empty slice = clean). Results restored from a persistent
// store (DecodeResult) participate exactly like live ones: the recorded
// architectural hash is the equivalence witness, not the live pipeline.
func Audit(results []*Result) []string {
	type groupKey struct {
		bench string
		seed  int64
	}
	first := map[groupKey]*Result{}
	var warnings []string
	for _, r := range results {
		if r == nil || r.Err != "" || r.ArchHash == "" {
			continue
		}
		k := groupKey{r.Bench, r.Seed}
		ref, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		if r.archHash != ref.archHash {
			warnings = append(warnings, fmt.Sprintf(
				"%s: architectural state differs between %s and %s", r.Bench, ref.Tag(), r.Tag()))
		}
	}
	return warnings
}

// Summary aggregates a sweep's totals (serialized as the envelope's
// summary metric set).
type Summary struct {
	Runs     int
	Failed   int
	Insts    uint64
	Cycles   uint64
	WallNS   int64 // summed per-run wall time (CPU-seconds of simulation)
	MeanIPC  float64
	Warnings int
}

// Summarize computes a Summary over results plus the audit warning count.
func Summarize(results []*Result) Summary {
	var s Summary
	var ipcSum float64
	for _, r := range results {
		if r == nil {
			continue
		}
		s.Runs++
		if r.Err != "" {
			s.Failed++
			continue
		}
		s.Insts += r.Insts
		s.Cycles += r.Cycles
		s.WallNS += r.WallNS
		ipcSum += r.IPC
	}
	if ok := s.Runs - s.Failed; ok > 0 {
		s.MeanIPC = ipcSum / float64(ok)
	}
	s.Warnings = len(Audit(results))
	return s
}
