package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"reno/internal/pipeline"
	"reno/internal/sweep"
	"reno/metrics"
)

// mustNew builds a service or fails the test.
func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

// closeNow drains a test service with a generous budget.
func closeNow(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestSubmitValidation: spec problems fail at submission, with the same
// field-level wording the CLI's -validate path produces, and never create a
// job.
func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, Config{})
	defer closeNow(t, s)

	cases := []struct {
		name, spec, want string
	}{
		{"bad json", `{`, "grid spec"},
		{"unknown field", `{"benches":["gzip"],"machenes":["4w"]}`, "machenes"},
		{"unknown bench", `{"benches":["gzp"]}`, `unknown benchmark "gzp"`},
		{"inline spec in v1", `{"benches":["gzip"],"machines":[{"base":"4w"}]}`, `"version": 2`},
		{"bad machine field", `{"version":2,"benches":["gzip"],"machines":[{"base":"4w","rob_size":-1}]}`, "rob_size"},
	}
	for _, c := range cases {
		if _, err := s.Submit([]byte(c.spec)); err == nil {
			t.Errorf("%s: submission accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("rejected submissions created %d jobs", n)
	}
}

// TestSubmitAfterCloseRefused: a draining service accepts nothing new.
func TestSubmitAfterCloseRefused(t *testing.T) {
	s := mustNew(t, Config{})
	closeNow(t, s)
	if _, err := s.Submit([]byte(`{"benches":["gzip"],"max_insts":1000,"scale":0.1}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err %v, want ErrClosed", err)
	}
}

// TestQueueBoundsAndQueuedCancel: the queue depth bounds intake, and a
// queued job cancels instantly with an empty (but valid) result set.
func TestQueueBoundsAndQueuedCancel(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1, Runners: 1})
	defer closeNow(t, s)

	// j1 is big enough to hold the single runner while we fill the queue.
	big := []byte(`{"benches":["gzip","gsm.de"],"renos":["BASE","RENO"],"seeds":[0,1,2],"max_insts":300000}`)
	small := []byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":1000,"scale":0.1}`)
	j1, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner owns j1, so the queue slot is free for j2.
	waitState(t, j1, StateRunning)
	j2, err := s.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	// j1 occupies the only runner, j2 the only queue slot: a third job
	// must be refused.
	if _, err := s.Submit(small); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit into a full queue: err %v, want ErrQueueFull", err)
	}

	if ok, err := s.Cancel(j2.ID()); err != nil || !ok {
		t.Fatalf("cancel queued job: ok=%v err=%v", ok, err)
	}
	if st := j2.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state %s after cancel, want cancelled", st.State)
	}
	if rep, err := j2.Results(true); err != nil {
		t.Fatalf("cancelled-while-queued job has no results: %v", err)
	} else if len(rep.Records) != 0 {
		t.Errorf("never-started job has %d records, want 0", len(rep.Records))
	}
	// Cancelling a queued job frees its queue slot immediately.
	j4, err := s.Submit(small)
	if err != nil {
		t.Fatalf("submit after queued-cancel still refused: %v", err)
	}
	if ok, err := s.Cancel(j4.ID()); err != nil || !ok {
		t.Fatalf("cancel refilled slot: ok=%v err=%v", ok, err)
	}

	// A running job cannot be removed, only cancelled.
	if removed, err := s.Remove(j1.ID()); err != nil || removed {
		t.Fatalf("remove running job: removed=%v err=%v", removed, err)
	}
	if ok, err := s.Cancel(j1.ID()); err != nil || !ok {
		t.Fatalf("cancel running job: ok=%v err=%v", ok, err)
	}
	waitState(t, j1, StateCancelled)
	if ok, _ := s.Cancel(j1.ID()); ok {
		t.Error("cancelling a terminal job reported true")
	}
	if _, err := s.Cancel("sw-999999"); err == nil {
		t.Error("cancelling an unknown job did not error")
	}

	// Terminal jobs can be removed, reclaiming the store entry.
	before := len(s.Jobs())
	if removed, err := s.Remove(j1.ID()); err != nil || !removed {
		t.Fatalf("remove terminal job: removed=%v err=%v", removed, err)
	}
	if _, ok := s.Job(j1.ID()); ok || len(s.Jobs()) != before-1 {
		t.Error("removed job still present in the store")
	}
}

// waitState polls until the job reaches want (or fails the test).
func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := j.Status()
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state %s, want %s", st.ID, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheOnlyKeepsCompleteRuns: failures and partials never enter the
// cache.
func TestCacheOnlyKeepsCompleteRuns(t *testing.T) {
	c := NewCache(-1, nil)
	c.Put("k1", nil)
	c.Put("k2", &sweep.Result{Err: "boom"})
	c.Put("k3", &sweep.Result{}) // no metric set: partial
	if c.Len() != 0 {
		t.Fatalf("cache kept %d incomplete runs", c.Len())
	}
	if c.Get("k2") != nil {
		t.Error("lookup returned an uncached failure")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats (%d, %d), want (0, 1)", hits, misses)
	}
}

// TestCacheLRUEviction: the bound displaces the least recently used entry,
// and lookups refresh recency.
func TestCacheLRUEviction(t *testing.T) {
	ok := func(key string) *sweep.Result {
		return &sweep.Result{Bench: key, Metrics: (&pipeline.Result{}).Metrics()}
	}
	c := NewCache(2, nil)
	c.Put("a", ok("a"))
	c.Put("b", ok("b"))
	if c.Get("a") == nil { // refresh "a": "b" is now the LRU victim
		t.Fatal("warm entry missing")
	}
	c.Put("c", ok("c"))
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len %d evictions %d, want 2 and 1", c.Len(), c.Evictions())
	}
	if c.Get("b") != nil {
		t.Error("LRU entry survived eviction")
	}
	if c.Get("a") == nil || c.Get("c") == nil {
		t.Error("recently used entries were evicted")
	}
	// Re-putting an existing key refreshes in place, never evicts.
	c.Put("a", ok("a2"))
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("refresh changed len/evictions: %d/%d", c.Len(), c.Evictions())
	}
	if got := c.Get("a"); got == nil || got.Bench != "a2" {
		t.Error("refresh did not replace the entry")
	}
}

// TestCacheBoundConvention pins the one bound convention shared by
// NewCache, Config.CacheEntries, and the renoserve -cache flag:
// negative = unbounded, zero = DefaultCacheEntries, positive = literal.
// (The historical bug: the flag help said "0 = default" while the
// constructor treated <= 0 as unbounded, so -cache 0 daemons ran without
// any bound.)
func TestCacheBoundConvention(t *testing.T) {
	ok := func(key string) *sweep.Result {
		return &sweep.Result{Bench: key, Metrics: (&pipeline.Result{}).Metrics()}
	}
	cases := []struct {
		name    string
		max     int
		bound   int // resolved bound (0 = unbounded)
		inserts int
		wantLen int
	}{
		{"negative is unbounded", -1, 0, DefaultCacheEntries + 10, DefaultCacheEntries + 10},
		{"zero is the default bound", 0, DefaultCacheEntries, 3, 3},
		{"one entry", 1, 1, 3, 1},
		{"literal bound", 4, 4, 10, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := NewCache(c.max, nil)
			if got := cache.Bound(); got != c.bound {
				t.Fatalf("NewCache(%d, nil).Bound() = %d, want %d", c.max, got, c.bound)
			}
			for i := 0; i < c.inserts; i++ {
				cache.Put(fmt.Sprintf("k%07d", i), ok("b"))
			}
			if got := cache.Len(); got != c.wantLen {
				t.Fatalf("after %d inserts into NewCache(%d, nil): len %d, want %d",
					c.inserts, c.max, got, c.wantLen)
			}
			// The Config path resolves identically.
			s := mustNew(t, Config{CacheEntries: c.max})
			defer closeNow(t, s)
			if got := s.Cache().Bound(); got != c.bound {
				t.Fatalf("Config{CacheEntries: %d} cache bound %d, want %d", c.max, got, c.bound)
			}
		})
	}
}

// TestCacheLookupAliasing is the regression test for the aliasing hazard:
// the cache used to hand out its internal *sweep.Result pointer, so a
// caller mutating an emitted report (or the put result, post-insert)
// corrupted what every later job was served.
func TestCacheLookupAliasing(t *testing.T) {
	c := NewCache(-1, nil)
	orig := &sweep.Result{
		Bench: "gzip", Config: "RENO", IPC: 1.5, Hash: "h0",
		Metrics: (&pipeline.Result{Cycles: 1000, IPC: 1.5}).Metrics(),
	}
	c.Put("k", orig)

	// Mutating the inserted result after Put must not reach the cache.
	orig.IPC = -1

	got := c.Get("k")
	if got == nil || got.IPC != 1.5 {
		t.Fatalf("cache aliased the inserted result: %+v", got)
	}

	// Mutating a looked-up result must not reach the cache either.
	got.IPC = -2
	got.Hash = "mutated"

	again := c.Get("k")
	if again.IPC != 1.5 || again.Hash != "h0" {
		t.Fatalf("cache aliased the emitted result: %+v", again)
	}
	if got == again {
		t.Fatal("two lookups returned the same pointer")
	}

	// A result decoded from a disk store keeps one metric set, shared by
	// the cache entry and every result served from it. Emitting a served
	// result (which layers the wall-clock metrics onto a copy of that
	// set), mutating the emitted set and mutating the served result must
	// leave what the cache serves next unchanged.
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := fakeResult("gzip")
	live.WallNS, live.SimInstsPerSec = 12345, 6.5
	ds.Put(key16(1), live)
	decoded := ds.Get(key16(1))
	if decoded == nil || decoded == live || !decoded.Complete() {
		t.Fatalf("disk store did not serve a decoded result: %+v", decoded)
	}
	c.Put("d", decoded)
	envelope := func(r *sweep.Result) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := sweep.NewReport(sweep.Grid{}, []*sweep.Result{r}).WriteJSON(&b, sweep.EmitOptions{}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	served := c.Get("d")
	want := envelope(served)
	if twice := envelope(served); !bytes.Equal(twice, want) {
		t.Fatalf("emitting a decoded result twice changed its envelope:\n%s\n----\n%s", want, twice)
	}
	mr, err := sweep.NewReport(sweep.Grid{}, []*sweep.Result{served}).MetricsReport(sweep.EmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mr.Records[0].Metrics.Counter(metrics.PipelineCycles, 0).Counter("injected", 1)
	served.WallNS, served.Hash, served.Cycles = -1, "mutated", 0
	if got := envelope(c.Get("d")); !bytes.Equal(got, want) {
		t.Fatalf("mutating a served decoded result changed the cache:\n%s\n----\n%s", want, got)
	}
	if got := envelope(decoded); !bytes.Equal(got, want) {
		t.Fatalf("mutating a served decoded result changed the inserted one:\n%s\n----\n%s", want, got)
	}
}

// TestConcurrentCachedResubmits runs two resubmissions of one grid at the
// same time on a service warm-loaded from a store, then emits both at once
// while they share every cached metric set: under -race this is the check
// that serving and emitting decoded results shares nothing writable. Both
// must be served without simulating and emit the first run's envelope.
func TestConcurrentCachedResubmits(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"benches":["gzip","gsm.de"],"renos":["BASE","RENO"],"max_insts":5000,"scale":0.2}`)
	s1 := mustNew(t, Config{Workers: 2, StoreDir: dir})
	want := stableBytes(t, runToDone(t, s1, spec))
	closeNow(t, s1)

	s2 := mustNew(t, Config{Workers: 2, Runners: 2, StoreDir: dir})
	defer closeNow(t, s2)
	jobs := make([]*Job, 2)
	for i := range jobs {
		j, err := s2.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := waitState(t, j, StateDone); st.CacheHits != st.Runs {
			t.Errorf("resubmit %d: %d of %d cells from the cache", i, st.CacheHits, st.Runs)
		}
	}
	if n := s2.Simulated(); n != 0 {
		t.Errorf("warm service simulated %d runs, want 0", n)
	}

	var wg sync.WaitGroup
	got := make([][]byte, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			// The wall-clock envelope first, then the stable one kept
			// for comparison.
			for _, stable := range []bool{false, true} {
				rep, err := j.Results(stable)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := rep.Encode(&buf); err != nil {
					t.Error(err)
					return
				}
				got[i] = buf.Bytes()
			}
		}(i, j)
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("resubmit %d emitted different stable bytes:\n%s\n----\n%s", i, want, b)
		}
	}
}

// TestCachedResubmitEventsInJobOrder: a fully cached resubmission streams
// its run events in job order, every one cached, and simulates nothing.
func TestCachedResubmitEventsInJobOrder(t *testing.T) {
	spec := []byte(`{"benches":["gzip","gsm.de"],"machines":["4w","6w"],"renos":["BASE","RENO"],"max_insts":5000,"scale":0.2}`)
	s := mustNew(t, Config{Workers: 4})
	defer closeNow(t, s)
	runToDone(t, s, spec)
	j := runToDone(t, s, spec)
	if n := s.Simulated(); n != uint64(j.Runs()) {
		t.Fatalf("service simulated %d runs, want %d (the first submission only)", n, j.Runs())
	}
	opts := j.grid.Options()
	evs, _, _, _ := j.Events(0)
	var runs []Event
	for _, ev := range evs {
		if ev.Type == "run" {
			runs = append(runs, ev)
		}
	}
	if len(runs) != len(j.jobs) {
		t.Fatalf("%d run events, want %d", len(runs), len(j.jobs))
	}
	for i, ev := range runs {
		if ev.RunKey != j.jobs[i].Key(opts) || ev.Done != i+1 || !ev.Cached {
			t.Errorf("run event %d: key %s done %d cached %v, want job %d's key %s, done %d, cached",
				i, ev.RunKey, ev.Done, ev.Cached, i, j.jobs[i].Key(opts), i+1)
		}
	}
}

// TestCancelWhileDequeued pins the cancel-while-dequeued window: a runner
// has popped the job from pending (so Cancel cannot unqueue it) but has not
// yet called begin(). Cancel settles the job exactly once, and the late
// begin() must report false — the job never resurrects to running after
// being cancelled.
func TestCancelWhileDequeued(t *testing.T) {
	// No runners: the test plays the runner by hand through the newService
	// seam, freezing the schedule inside the window.
	s, err := newService(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	j, err := s.Submit([]byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":1000,"scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}

	// The runner's dequeue step: pending no longer holds the job...
	s.mu.Lock()
	if len(s.pending) != 1 || s.pending[0] != j {
		s.mu.Unlock()
		t.Fatalf("pending = %v", s.pending)
	}
	s.pending = s.pending[1:]
	s.mu.Unlock()

	// ...and Cancel lands exactly in the window before begin().
	if ok, err := s.Cancel(j.ID()); err != nil || !ok {
		t.Fatalf("cancel in the dequeue window: ok=%v err=%v", ok, err)
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("state %s after window cancel, want cancelled", st.State)
	}

	// The runner proceeds: begin() is the guard and must refuse.
	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	if j.begin(cancel) {
		t.Fatal("begin() resurrected a cancelled job to running")
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("state %s after late begin, want cancelled", st.State)
	}

	// The job settled exactly once: one terminal state event, no running.
	evs, _, terminal, _ := j.Events(0)
	if !terminal {
		t.Fatal("job not terminal")
	}
	terminals := 0
	for _, ev := range evs {
		if ev.Type != "state" {
			continue
		}
		if ev.State == StateRunning {
			t.Fatalf("events record a running transition: %+v", evs)
		}
		if ev.State.Terminal() {
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("job settled %d times, want exactly once (events: %+v)", terminals, evs)
	}
	if rep, err := j.Results(true); err != nil || len(rep.Records) != 0 {
		t.Fatalf("window-cancelled job results: %v records, err %v", rep, err)
	}
}

// TestCancelRaceSettlesOnce hammers the same window concurrently under
// -race: the runner's run() races Cancel on a freshly dequeued job; in
// every interleaving the job settles terminal exactly once.
func TestCancelRaceSettlesOnce(t *testing.T) {
	s, err := newService(context.Background(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	spec := []byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":500,"scale":0.1}`)
	for i := 0; i < 20; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.pending = s.pending[1:] // the dequeue step
		s.mu.Unlock()

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.run(j) }()
		go func() { defer wg.Done(); s.Cancel(j.ID()) }()
		wg.Wait()

		st := j.Status()
		if !st.State.Terminal() {
			t.Fatalf("iteration %d: job not terminal (%s)", i, st.State)
		}
		evs, _, _, _ := j.Events(0)
		terminals := 0
		for _, ev := range evs {
			if ev.Type == "state" && ev.State.Terminal() {
				terminals++
			}
		}
		if terminals != 1 {
			t.Fatalf("iteration %d: job settled %d times (events: %+v)", i, terminals, evs)
		}
		if _, err := j.Results(true); err != nil {
			t.Fatalf("iteration %d: terminal job has no results: %v", i, err)
		}
	}
}

// TestGracefulDrainCompletesQueuedJobs: Close with headroom lets queued
// work finish rather than cancelling it.
func TestGracefulDrainCompletesQueuedJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 2})
	spec := []byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":5000,"scale":0.2}`)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	closeNow(t, s)
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("drained job state %s, want done", st.State)
	}
}

// TestForcedDrainCancelsInFlight: an expired drain budget cancels the
// running sweep, which still settles with partial results.
func TestForcedDrainCancelsInFlight(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	spec := []byte(`{"benches":["gzip","gsm.de"],"renos":["BASE","RENO"],"seeds":[0,1,2],"max_insts":300000}`)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced close returned %v, want deadline exceeded", err)
	}
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state %s after forced drain, want cancelled", st.State)
	}
	rep, err := j.Results(true)
	if err != nil {
		t.Fatalf("no partial results after forced drain: %v", err)
	}
	if len(rep.Records) != st.Runs {
		t.Errorf("partial envelope has %d records, want one per run (%d)", len(rep.Records), st.Runs)
	}
}

// TestNewContextParentCancel pins the lifetime contract introduced with
// NewContext: every job context derives from the caller's base context, so
// cancelling the parent settles work as cancelled — the behaviour New
// (base context.Background) can never trigger from outside. The runner is
// played by hand through the newService seam to keep the schedule
// deterministic.
func TestNewContextParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := newService(ctx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	j, err := s.Submit([]byte(`{"benches":["gzip"],"renos":["BASE"],"max_insts":1000,"scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}

	// The parent dies before any runner picks the job up.
	cancel()

	// The runner proceeds as usual: dequeue, then run. The job's context
	// derives from the dead parent, so the sweep is stillborn and the job
	// must settle cancelled, not hang or report success.
	s.mu.Lock()
	s.pending = s.pending[1:]
	s.mu.Unlock()
	s.run(j)

	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("state %s after parent cancel, want %s", st.State, StateCancelled)
	}
}

// cancelMidRun runs the in-process pool on one worker and cancels the
// sweep as its second run completes, so every later cell fails as
// canceled. It then gives the last finished run a foreign architectural
// hash, so the audit warns too.
type cancelMidRun struct{}

func (cancelMidRun) Dispatch(ctx context.Context, _ string, _ []byte, jobs []sweep.Job, opts sweep.Options, _ func(Event)) []*sweep.Result {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	progress := opts.Progress
	opts.Workers = 1
	opts.Progress = func(ri sweep.RunInfo) {
		if ri.Done == 2 {
			cancel()
		}
		progress(ri)
	}
	results := sweep.RunContext(ctx, jobs, opts)
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Err == "" {
			results[i].ArchHash = "ffffffffffffffff"
			break
		}
	}
	return results
}

// TestFinishedJobSummary: a job with failed cells and an audit warning
// reports the same counts in its Status and in its envelope's summary, and
// its stable envelope is the same bytes on every request.
func TestFinishedJobSummary(t *testing.T) {
	s := mustNew(t, Config{Dispatcher: cancelMidRun{}})
	j, err := s.Submit([]byte(`{"benches":["gzip"],"renos":["BASE","ME","RENO","RENO+FI"],"max_insts":2000,"scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	closeNow(t, s)
	st := j.Status()
	if st.State != StateFailed || st.Failed == 0 || st.Failed == st.Runs || st.AuditWarnings == 0 {
		t.Fatalf("status %+v, want a failed job with some failed runs and an audit warning", st)
	}
	var encoded [2][]byte
	for k := range encoded {
		rep, err := j.Results(true)
		if err != nil {
			t.Fatal(err)
		}
		failed, _ := rep.Summary.Count(metrics.SweepFailed)
		warnings, _ := rep.Summary.Count(metrics.SweepAuditWarnings)
		if failed != uint64(st.Failed) || warnings != uint64(st.AuditWarnings) {
			t.Errorf("envelope summary: %d failed, %d audit warnings; status: %d, %d",
				failed, warnings, st.Failed, st.AuditWarnings)
		}
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		encoded[k] = buf.Bytes()
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Errorf("two stable envelopes differ:\n%s\n----\n%s", encoded[0], encoded[1])
	}
}
