package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"reno/internal/service"
	"reno/internal/sweep"
)

// testGrid expands a small real grid and returns everything a dispatch
// needs: the spec, the jobs, their run keys, and pre-computed results.
func testGrid(t testing.TB, spec string) (specBytes []byte, jobs []sweep.Job, keys []string, records map[int][]byte) {
	t.Helper()
	grid, err := sweep.ParseGridJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := grid.Options()
	keys = make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key(opts)
	}
	results := sweep.RunContext(context.Background(), jobs, opts)
	records = make(map[int][]byte, len(results))
	for i, r := range results {
		rec, err := sweep.EncodeResult(keys[i], r)
		if err != nil {
			t.Fatalf("encode cell %d: %v", i, err)
		}
		records[i] = rec
	}
	return []byte(spec), jobs, keys, records
}

// startDispatch runs Dispatch in the background and returns a cancel for
// the sweep plus a channel carrying the final result slice.
func startDispatch(t testing.TB, c *Coordinator, id string, spec []byte, jobs []sweep.Job, opts sweep.Options, publish func(service.Event)) (context.CancelFunc, <-chan []*sweep.Result) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan []*sweep.Result, 1)
	go func() { out <- c.Dispatch(ctx, id, spec, jobs, opts, publish) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.stats()
		if st.ActiveSweeps == 1 {
			return cancel, out
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatch never registered its sweep")
		}
		time.Sleep(time.Millisecond)
	}
}

const twoCellSpec = `{"benches":["gzip"],"renos":["BASE","RENO"],"max_insts":2000,"scale":0.1}`

// TestUploadAfterExpiryDedup is the lease-expiry edge case: a worker dies
// after uploading a result but before its lease is released, the cells
// requeue, a replacement picks them up, and the late/duplicate uploads
// neither double-count a cell nor corrupt the sweep. Uploads quoting an
// expired lease are still honored for cells no one settled first.
func TestUploadAfterExpiryDedup(t *testing.T) {
	spec, jobs, keys, records := testGrid(t, twoCellSpec)
	clk := newFakeClock()
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.Now})

	grid, _ := sweep.ParseGridJSON(spec)
	var mu sync.Mutex
	progressed := map[int]int{}
	opts := grid.Options()
	opts.Progress = func(ri sweep.RunInfo) {
		mu.Lock()
		progressed[ri.Index]++
		mu.Unlock()
	}
	var events []service.Event
	publish := func(ev service.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	cancel, out := startDispatch(t, c, "sw-test", spec, jobs, opts, publish)
	defer cancel()

	// w1 takes both cells across two leases, then goes silent past the TTL.
	g1, ok := c.grant(LeaseRequest{Worker: "w1", Capacity: 1})
	if !ok {
		t.Fatal("no grant for w1")
	}
	if _, ok := c.grant(LeaseRequest{Worker: "w1", Capacity: 1}); !ok {
		t.Fatal("no second grant for w1")
	}
	clk.Advance(11 * time.Second)

	// w2's next request reaps w1's lease and re-leases its cells.
	g2, ok := c.grant(LeaseRequest{Worker: "w2", Capacity: 1})
	if !ok {
		t.Fatal("no grant for w2 after expiry")
	}
	if g2.Cells[0] != g1.Cells[0] {
		t.Fatalf("w2 granted cell %d, want w1's expired cell %d", g2.Cells[0], g1.Cells[0])
	}

	// The dead worker's upload arrives anyway — work is never discarded,
	// even from an expired lease.
	cell := g1.Cells[0]
	rep := c.upload(UploadRequest{Worker: "w1", Lease: g1.Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: cell, Key: keys[cell], Record: records[cell]}}})
	if rep.Accepted != 1 {
		t.Fatalf("stale-lease upload: %+v, want accepted", rep)
	}

	// w2 finishes the same cell: a duplicate, not a double count.
	rep = c.upload(UploadRequest{Worker: "w2", Lease: g2.Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: cell, Key: keys[cell], Record: records[cell]}}})
	if rep.Duplicate != 1 || rep.Accepted != 0 {
		t.Fatalf("duplicate upload: %+v, want duplicate=1", rep)
	}

	// Settle the remaining cells from wherever they are leased now.
	for i := range jobs {
		if i == cell {
			continue
		}
		c.upload(UploadRequest{Worker: "w2", Sweep: "sw-test",
			Results: []CellUpload{{Cell: i, Key: keys[i], Record: records[i]}}})
	}
	results := <-out
	for i, r := range results {
		if r == nil || r.Err != "" {
			t.Fatalf("cell %d did not settle cleanly: %+v", i, r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, n := range progressed {
		if n != 1 {
			t.Errorf("cell %d reported progress %d times, want exactly once", i, n)
		}
	}
	st := c.stats()
	if st.LeasesExpired != 2 || st.DuplicateResults != 1 {
		t.Errorf("stats %+v, want two expiries and one duplicate", st)
	}
	var expired bool
	for _, ev := range events {
		if ev.Type == "lease" && ev.Action == "expired" && ev.Lease == g1.Lease {
			expired = true
		}
	}
	if !expired {
		t.Error("no expired lease event published")
	}
}

// TestFailedCellRetryBudget: worker-reported failures requeue the cell
// until the attempt budget is spent, then settle it as a failed result so
// the sweep still terminates.
func TestFailedCellRetryBudget(t *testing.T) {
	spec, jobs, keys, records := testGrid(t, twoCellSpec)
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, MaxAttempts: 2})

	grid, _ := sweep.ParseGridJSON(spec)
	cancel, out := startDispatch(t, c, "sw-test", spec, jobs, grid.Options(), nil)
	defer cancel()

	g, ok := c.grant(LeaseRequest{Worker: "w1"})
	if !ok {
		t.Fatal("no grant")
	}
	bad := g.Cells[0]
	rep := c.upload(UploadRequest{Worker: "w1", Lease: g.Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: bad, Key: keys[bad], Err: "simulated failure"}}})
	if rep.Requeued != 1 {
		t.Fatalf("first failure: %+v, want requeued", rep)
	}
	// Second failure exhausts the budget (MaxAttempts 2): settled failed.
	rep = c.upload(UploadRequest{Worker: "w1", Sweep: "sw-test",
		Results: []CellUpload{{Cell: bad, Key: keys[bad], Err: "simulated failure"}}})
	if rep.Requeued != 0 || rep.Accepted != 0 {
		t.Fatalf("budget-exhausting failure: %+v, want settled (neither requeued nor accepted)", rep)
	}
	for i := range jobs {
		if i != bad {
			c.upload(UploadRequest{Worker: "w1", Sweep: "sw-test",
				Results: []CellUpload{{Cell: i, Key: keys[i], Record: records[i]}}})
		}
	}
	results := <-out
	if r := results[bad]; r == nil || !strings.Contains(r.Err, "simulated failure") {
		t.Fatalf("exhausted cell result: %+v, want the reported failure", results[bad])
	}
	for i, r := range results {
		if i != bad && (r == nil || r.Err != "") {
			t.Errorf("cell %d: %+v, want clean", i, r)
		}
	}
	// An upload for a finished sweep is stale, not an error.
	if rep := c.upload(UploadRequest{Worker: "w1", Sweep: "sw-test"}); !rep.Stale {
		t.Errorf("upload after completion: %+v, want stale", rep)
	}
}

// TestStatsReapsExpiredLeases: expiry is checked only when a request
// arrives, and a state read is such a request, so /v1/cluster/state and
// /v1/healthz never report an expired lease as live even when no worker
// is calling.
func TestStatsReapsExpiredLeases(t *testing.T) {
	spec, jobs, _, _ := testGrid(t, twoCellSpec)
	clk := newFakeClock()
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.Now, Journal: j})

	grid, _ := sweep.ParseGridJSON(spec)
	var mu sync.Mutex
	var events []service.Event
	publish := func(ev service.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	cancel, _ := startDispatch(t, c, "sw-test", spec, jobs, grid.Options(), publish)
	defer cancel()

	g, ok := c.grant(LeaseRequest{Worker: "w1"})
	if !ok {
		t.Fatal("no grant")
	}
	if st := c.stats(); st.ActiveLeases != 1 || st.LeasedCells != len(g.Cells) {
		t.Fatalf("stats before expiry %+v, want one live lease over %d cells", st, len(g.Cells))
	}
	clk.Advance(11 * time.Second)

	st := c.stats()
	if st.ActiveLeases != 0 || st.LeasedCells != 0 || st.LeasesExpired != 1 {
		t.Errorf("stats after expiry %+v, want the lease reaped: 0 active, 1 expired", st)
	}
	if st.PendingCells != len(jobs) {
		t.Errorf("pending_cells %d after expiry, want all %d cells back", st.PendingCells, len(jobs))
	}
	mu.Lock()
	var expired []service.Event
	for _, ev := range events {
		if ev.Type == "lease" && ev.Action == "expired" {
			expired = append(expired, ev)
		}
	}
	mu.Unlock()
	if len(expired) != 1 || expired[0].Lease != g.Lease || expired[0].Worker != "w1" || expired[0].Cells != len(g.Cells) {
		t.Errorf("expired events %+v, want exactly one for %s/w1 over %d cells", expired, g.Lease, len(g.Cells))
	}

	for i := 0; i < 2; i++ {
		if err := c.Close(); err != nil {
			t.Fatalf("Close #%d: %v, want nil", i+1, err)
		}
	}
}

// TestSettledCellNeverRegranted: a reaped lease's cells go back to the
// pending queue, and a late upload from the dead worker settles one of
// them. The settled cell must leave the queue too — pending_cells counts
// only unsettled cells, and no later lease carries a settled cell.
func TestSettledCellNeverRegranted(t *testing.T) {
	spec, jobs, keys, records := testGrid(t, twoCellSpec)
	clk := newFakeClock()
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.Now})
	h := c.Handler()

	grid, _ := sweep.ParseGridJSON(spec)
	var mu sync.Mutex
	progressed := map[int]int{}
	opts := grid.Options()
	opts.Progress = func(ri sweep.RunInfo) {
		mu.Lock()
		progressed[ri.Index]++
		mu.Unlock()
	}
	cancel, out := startDispatch(t, c, "sw-test", spec, jobs, opts, nil)
	defer cancel()

	// w1 takes both cells as two 1-cell leases, then misses its TTL; its
	// next heartbeat reaps both leases and is told the lease is gone.
	g1, ok1 := c.grant(LeaseRequest{Worker: "w1", Capacity: 1})
	g2, ok2 := c.grant(LeaseRequest{Worker: "w1", Capacity: 1})
	if !ok1 || !ok2 || len(g1.Cells) != 1 || len(g2.Cells) != 1 {
		t.Fatalf("grants %+v / %+v, want two 1-cell leases", g1, g2)
	}
	clk.Advance(11 * time.Second)
	if code := postStatus(t, h, "/v1/cluster/heartbeat", Heartbeat{Worker: "w1", Lease: g1.Lease}); code != http.StatusGone {
		t.Fatalf("heartbeat on an expired lease: HTTP %d, want 410", code)
	}

	// The dead worker's late upload of its first cell is still accepted.
	settled := g1.Cells[0]
	rep := c.upload(UploadRequest{Worker: "w1", Lease: g1.Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: settled, Key: keys[settled], Record: records[settled]}}})
	if rep.Accepted != 1 {
		t.Fatalf("late upload: %+v, want accepted", rep)
	}
	if st := c.stats(); st.PendingCells != 1 {
		t.Fatalf("pending_cells %d after the late upload, want 1 (only the unsettled cell)", st.PendingCells)
	}

	// w2 is granted the one unsettled cell, and nothing else.
	g3, ok := c.grant(LeaseRequest{Worker: "w2", Capacity: 1})
	if !ok || !reflect.DeepEqual(g3.Cells, g2.Cells) {
		t.Fatalf("w2 granted %+v (ok=%v), want only the unsettled cell %v", g3.Cells, ok, g2.Cells)
	}
	if g, ok := c.grant(LeaseRequest{Worker: "w2", Capacity: 1}); ok {
		t.Fatalf("settled cell granted again: %+v", g)
	}
	left := g2.Cells[0]
	c.upload(UploadRequest{Worker: "w2", Lease: g3.Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: left, Key: keys[left], Record: records[left]}}})
	for i, r := range <-out {
		if r == nil || r.Err != "" {
			t.Fatalf("cell %d did not settle cleanly: %+v", i, r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range jobs {
		if progressed[i] != 1 {
			t.Errorf("cell %d reported progress %d times, want exactly once", i, progressed[i])
		}
	}
	if st := c.stats(); st.DuplicateResults != 0 {
		t.Errorf("stats %+v, want no duplicate work", st)
	}
}

// TestReapedCellFailureQueuedOnce: a failure report arriving for a cell
// whose lease was already reaped and requeued counts against the cell's
// attempt budget but does not queue the cell a second time.
func TestReapedCellFailureQueuedOnce(t *testing.T) {
	spec, jobs, keys, _ := testGrid(t, twoCellSpec)
	clk := newFakeClock()
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.Now})

	grid, _ := sweep.ParseGridJSON(spec)
	cancel, _ := startDispatch(t, c, "sw-test", spec, jobs, grid.Options(), nil)
	defer cancel()

	g, ok := c.grant(LeaseRequest{Worker: "w1", Capacity: 1})
	if !ok {
		t.Fatal("no grant")
	}
	clk.Advance(11 * time.Second)
	if st := c.stats(); st.PendingCells != len(jobs) {
		t.Fatalf("pending_cells %d after expiry, want %d", st.PendingCells, len(jobs))
	}
	cell := g.Cells[0]
	rep := c.upload(UploadRequest{Worker: "w1", Lease: g.Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: cell, Key: keys[cell], Err: "simulated failure"}}})
	if rep.Requeued != 1 {
		t.Fatalf("late failure: %+v, want requeued", rep)
	}
	if st := c.stats(); st.PendingCells != len(jobs) {
		t.Errorf("pending_cells %d after a late failure, want %d (the cell queued once)", st.PendingCells, len(jobs))
	}
}

// TestIdleWorkerWaitsForExpiry: lease expiry is the only way a cell
// changes hands. While one worker holds every unsettled cell, another
// worker's lease request answers 204 — even when a held lease has cells
// to spare — and once the holder misses its TTL the idle worker is
// granted exactly the holder's unsettled cells.
func TestIdleWorkerWaitsForExpiry(t *testing.T) {
	spec, jobs, keys, records := testGrid(t, fourCellSpec)
	clk := newFakeClock()
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 10 * time.Second, Clock: clk.Now})
	h := c.Handler()

	grid, _ := sweep.ParseGridJSON(spec)
	cancel, _ := startDispatch(t, c, "sw-test", spec, jobs, grid.Options(), nil)
	defer cancel()

	// w1 takes every cell; the first grant is a multi-cell batch.
	var held []LeaseGrant
	for {
		g, ok := c.grant(LeaseRequest{Worker: "w1"})
		if !ok {
			break
		}
		held = append(held, g)
	}
	widest, total := 0, 0
	for _, g := range held {
		widest = max(widest, len(g.Cells))
		total += len(g.Cells)
	}
	if total != len(jobs) || widest < 2 {
		t.Fatalf("w1 holds %d cells, widest lease %d; want all %d cells and a lease of >= 2", total, widest, len(jobs))
	}

	// w1 settles one cell; w2 asks for work and gets none.
	first := held[0].Cells[0]
	c.upload(UploadRequest{Worker: "w1", Lease: held[0].Lease, Sweep: "sw-test",
		Results: []CellUpload{{Cell: first, Key: keys[first], Record: records[first]}}})
	if code := postStatus(t, h, "/v1/cluster/lease", LeaseRequest{Worker: "w2", Capacity: 2}); code != http.StatusNoContent {
		t.Fatalf("idle worker's lease request: HTTP %d, want 204 while every cell is leased", code)
	}

	// w1 misses its TTL: w2's grants now cover exactly w1's unsettled
	// cells, each once.
	clk.Advance(11 * time.Second)
	var got []int
	for {
		g, ok := c.grant(LeaseRequest{Worker: "w2"})
		if !ok {
			break
		}
		got = append(got, g.Cells...)
	}
	sort.Ints(got)
	var want []int
	for i := range jobs {
		if i != first {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("w2 granted cells %v after w1 expired, want w1's unsettled cells %v", got, want)
	}
	if st := c.stats(); st.LeasesExpired != uint64(len(held)) {
		t.Errorf("leases_expired %d, want %d (every lease w1 still held)", st.LeasesExpired, len(held))
	}
}

// postStatus sends one JSON request through h and returns the HTTP status.
func postStatus(t *testing.T, h http.Handler, path string, body any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	return rec.Code
}

// TestCloseRaceWithRequests hammers the request surface (grant, heartbeat,
// upload) while Close runs mid-flight — run under -race in CI. Close stops
// journaling, but requests must keep working: the service drains sweeps
// on its own schedule.
func TestCloseRaceWithRequests(t *testing.T) {
	spec, jobs, keys, records := testGrid(t, twoCellSpec)
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 20 * time.Millisecond})

	grid, _ := sweep.ParseGridJSON(spec)
	cancel, out := startDispatch(t, c, "sw-test", spec, jobs, grid.Options(), nil)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, ok := c.grant(LeaseRequest{Worker: worker, Capacity: 1})
				if !ok {
					continue
				}
				c.heartbeat(Heartbeat{Worker: worker, Lease: g.Lease})
				for _, cell := range g.Cells {
					c.upload(UploadRequest{Worker: worker, Lease: g.Lease, Sweep: "sw-test",
						Results: []CellUpload{{Cell: cell, Key: keys[cell], Record: records[cell]}}})
				}
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	if err := c.Close(); err != nil { // races the request storm
		t.Fatal(err)
	}
	results := <-out // the storm settles both cells regardless
	close(stop)
	wg.Wait()
	for i, r := range results {
		if r == nil || r.Err != "" {
			t.Fatalf("cell %d after Close race: %+v", i, r)
		}
	}
}

// TestKeyMismatchRejected: a record whose key does not match the
// coordinator's own expansion never settles the cell.
func TestKeyMismatchRejected(t *testing.T) {
	spec, jobs, keys, records := testGrid(t, twoCellSpec)
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour, MaxAttempts: 1})

	grid, _ := sweep.ParseGridJSON(spec)
	cancel, out := startDispatch(t, c, "sw-test", spec, jobs, grid.Options(), nil)
	defer cancel()

	// Cell 0 uploaded with cell 1's record: key mismatch, budget of one
	// attempt → settles failed with the mismatch message.
	rep := c.upload(UploadRequest{Worker: "w1", Sweep: "sw-test",
		Results: []CellUpload{{Cell: 0, Key: keys[1], Record: records[1]}}})
	if rep.Accepted != 0 {
		t.Fatalf("mismatched record accepted: %+v", rep)
	}
	c.upload(UploadRequest{Worker: "w1", Sweep: "sw-test",
		Results: []CellUpload{{Cell: 1, Key: keys[1], Record: records[1]}}})
	results := <-out
	if r := results[0]; r == nil || !strings.Contains(r.Err, "key mismatch") {
		t.Fatalf("cell 0: %+v, want key-mismatch failure", results[0])
	}
}
