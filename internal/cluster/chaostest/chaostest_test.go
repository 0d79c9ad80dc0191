package chaostest

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"reno/internal/cluster"
	"reno/internal/service"
)

// The chaos schedules run real renoserve binaries; TestMain builds them
// once. Two environment knobs widen the runs for the cluster-chaos CI
// job without slowing plain `go test ./...`:
//
//	RENO_CHAOS_FULL=1     use the 32-cell grid everywhere (default: 6 cells)
//	RENO_CHAOS_SEEDS=1,2,3  fault-schedule seeds (default: 1)
var (
	renoserveBin string
	renosweepBin string
)

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		tmp, err := os.MkdirTemp("", "chaos-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		renoserveBin = filepath.Join(tmp, "renoserve")
		renosweepBin = filepath.Join(tmp, "renosweep")
		for bin, pkg := range map[string]string{renoserveBin: "reno/cmd/renoserve", renosweepBin: "reno/cmd/renosweep"} {
			cmd := exec.Command("go", "build", "-o", bin, pkg)
			if out, err := cmd.CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
				os.Exit(1)
			}
		}
	}
	os.Exit(m.Run())
}

// chaosGrid is the sweep under fault injection: 6 heavier cells by
// default — enough runway to kill things mid-flight — or the 32-cell CI
// grid with RENO_CHAOS_FULL=1.
func chaosGrid() []byte {
	if os.Getenv("RENO_CHAOS_FULL") != "" {
		return []byte(`{"benches":["bzip2","crafty","gap","gzip","parser","adpcm.de","gsm.de","jpg.de"],
 "machines":["4w","6w"],"renos":["BASE","RENO"],"max_insts":300000}`)
	}
	return []byte(`{"benches":["gzip"],"renos":["BASE","RENO"],"seeds":[0,1,2],"max_insts":300000}`)
}

func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("RENO_CHAOS_SEEDS")
	if env == "" {
		env = "1"
	}
	var seeds []int64
	for _, s := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("RENO_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// referenceBytes writes the grid to disk and runs the single-process CLI
// over it: the envelope every chaos schedule must reproduce exactly.
func referenceBytes(t *testing.T, grid []byte) (gridPath string, want []byte) {
	t.Helper()
	gridPath = filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(gridPath, grid, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := Reference(renosweepBin, gridPath)
	if err != nil {
		t.Fatal(err)
	}
	return gridPath, want
}

// procLog tees a process's output into the test log, line-buffered so
// interleaved writers stay readable.
type procLog struct {
	t      *testing.T
	prefix string
	mu     sync.Mutex
	buf    bytes.Buffer
}

func (l *procLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		line, rest, ok := bytes.Cut(l.buf.Bytes(), []byte("\n"))
		if !ok {
			break
		}
		l.t.Logf("[%s] %s", l.prefix, line)
		l.buf.Reset()
		l.buf.Write(rest)
	}
	return len(p), nil
}

func startServe(t *testing.T, name string, args ...string) *Proc {
	t.Helper()
	p, err := StartProc(name, &procLog{t: t, prefix: name}, renoserveBin, args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill9) // idempotent; tests that stop cleanly already reaped it
	return p
}

func freeAddr(t *testing.T) string {
	t.Helper()
	a, err := FreeAddr()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func startWorkerProc(t *testing.T, id, addr, coordinator string) *Proc {
	t.Helper()
	return startServe(t, id,
		"-role", "worker", "-addr", addr, "-peers", coordinator,
		"-worker-id", id, "-workers", "2", "-poll", "25ms")
}

// waitSettled polls a sweep until at least n of its cells are settled —
// the hook every schedule uses to time its kill mid-flight.
func waitSettled(t *testing.T, c *Client, id string, n float64) float64 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status(id)
		if err == nil {
			done, _ := st["done"].(float64)
			if done >= n {
				return done
			}
			if s, _ := st["state"].(string); s == "done" || s == "failed" {
				return done // nothing left to race against
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never settled %v cells", id, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertEnvelope(t *testing.T, c *Client, id string, want []byte) {
	t.Helper()
	got, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope differs from `renosweep -stable` (%d vs %d bytes)", len(got), len(want))
	}
}

// TestWorkerKill9MidSweep: SIGKILL a worker holding leases; its cells
// requeue on expiry, the survivor finishes, the envelope is exact.
func TestWorkerKill9MidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	grid := chaosGrid()
	_, want := referenceBytes(t, grid)
	store := t.TempDir()

	coordAddr := freeAddr(t)
	coord := startServe(t, "coord",
		"-role", "coordinator", "-addr", coordAddr, "-lease-ttl", "1s", "-store", store)
	w1 := startWorkerProc(t, "w1", freeAddr(t), "http://"+coordAddr)
	w2 := startWorkerProc(t, "w2", freeAddr(t), "http://"+coordAddr)

	c := NewClient("http://" + coordAddr)
	if err := c.WaitHealthy("ok", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c, id, 1)
	w1.Kill9()

	st, err := c.WaitState(id, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st["state"] != "done" {
		t.Fatalf("sweep ended %v: %v", st["state"], st)
	}
	assertEnvelope(t, c, id, want)

	w2.Stop(10 * time.Second)
	coord.Stop(30 * time.Second)
}

// TestCoordinatorKill9Restart is the tentpole acceptance scenario over
// real processes: SIGKILL the coordinator mid-sweep, restart it on the
// same store and journal, and the sweep resumes under its original ID —
// already-settled cells come back as cache hits, nothing simulates
// twice, and the final envelope is byte-identical to the CLI.
func TestCoordinatorKill9Restart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	grid := chaosGrid()
	_, want := referenceBytes(t, grid)
	store := t.TempDir()
	coordAddr := freeAddr(t)
	coordArgs := []string{"-role", "coordinator", "-addr", coordAddr, "-lease-ttl", "1s", "-store", store}

	coord := startServe(t, "coord-life1", coordArgs...)
	w := startWorkerProc(t, "w1", freeAddr(t), "http://"+coordAddr)

	c := NewClient("http://" + coordAddr)
	if err := c.WaitHealthy("ok", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	settledAtKill := waitSettled(t, c, id, 1)
	coord.Kill9()

	coord2 := startServe(t, "coord-life2", coordArgs...)
	if err := c.WaitHealthy("ok", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	cs, err := c.ClusterState()
	if err != nil {
		t.Fatal(err)
	}
	jstats, _ := cs["journal"].(map[string]any)
	if jstats == nil || jstats["recovered_sweeps"] != float64(1) {
		t.Fatalf("restarted coordinator journal state %v, want 1 recovered sweep", cs["journal"])
	}

	st, err := c.WaitState(id, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st["state"] != "done" {
		t.Fatalf("restored sweep ended %v: %v", st["state"], st)
	}
	hits, _ := st["cache_hits"].(float64)
	sim, _ := st["simulated"].(float64)
	runs, _ := st["runs"].(float64)
	if hits < settledAtKill {
		t.Errorf("cache_hits %v < %v cells settled before the kill: restored sweep re-simulated stored work", hits, settledAtKill)
	}
	if hits+sim != runs {
		t.Errorf("cache_hits %v + simulated %v != runs %v", hits, sim, runs)
	}
	assertEnvelope(t, c, id, want)

	w.Stop(10 * time.Second)
	coord2.Stop(30 * time.Second)
}

// TestSecondCoordinatorFencesFirst: two coordinators started on one
// -store share its default journal path. The second one's start-up
// compaction takes the journal over, so the first must refuse new sweeps
// with 503 rather than acknowledge jobs no restart would recover, while
// the second runs a sweep to the CLI's exact envelope.
func TestSecondCoordinatorFencesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	grid := chaosGrid()
	_, want := referenceBytes(t, grid)
	store := t.TempDir()
	firstAddr, secondAddr := freeAddr(t), freeAddr(t)

	first := startServe(t, "coord-first",
		"-role", "coordinator", "-addr", firstAddr, "-lease-ttl", "1s", "-store", store)
	fc := NewClient("http://" + firstAddr)
	if err := fc.WaitHealthy("ok", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	second := startServe(t, "coord-second",
		"-role", "coordinator", "-addr", secondAddr, "-lease-ttl", "1s", "-store", store)
	sc := NewClient("http://" + secondAddr)
	if err := sc.WaitHealthy("ok", 15*time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := fc.HTTP.Post(fc.Base+"/v1/sweeps", "application/json", bytes.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to the displaced coordinator answered %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("displaced coordinator's 503 has no Retry-After header")
	}

	w := startWorkerProc(t, "w1", freeAddr(t), "http://"+secondAddr)
	id, err := sc.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.WaitState(id, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st["state"] != "done" {
		t.Fatalf("sweep on the journal's owner ended %v: %v", st["state"], st)
	}
	assertEnvelope(t, sc, id, want)

	w.Stop(10 * time.Second)
	second.Stop(30 * time.Second)
	first.Stop(30 * time.Second)
}

// TestFaultScheduleByteIdentity runs in-process workers whose HTTP path
// loses, duplicates, delays, and drops messages on a seeded schedule:
// every /v1/cluster/ exchange must be idempotent enough that the final
// envelope still matches the CLI exactly, for every seed.
func TestFaultScheduleByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations and the reference CLI")
	}
	grid := chaosGrid()
	_, want := referenceBytes(t, grid)

	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			coord := cluster.NewCoordinator(cluster.CoordinatorConfig{LeaseTTL: 2 * time.Second})
			svc, err := service.New(service.Config{Dispatcher: coord, StoreDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(coord.Handler())
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				svc.Close(ctx)
				coord.Close()
				ts.Close()
			})

			ctx, stop := context.WithCancel(context.Background())
			t.Cleanup(stop)
			var wg sync.WaitGroup
			transports := make([]*FaultTransport, 2)
			for i := range transports {
				ft := NewFaultTransport(FaultPlan{
					Seed: seed + int64(i), Lose: 0.10, Dup: 0.15, Drop: 0.10, Delay: 5 * time.Millisecond,
				}, nil)
				transports[i] = ft
				w, err := cluster.NewWorker(cluster.WorkerConfig{
					ID: fmt.Sprintf("chaos-w%d", i), Coordinator: ts.URL,
					Capacity: 2, Poll: 10 * time.Millisecond, Seed: seed + int64(i),
					Client: &http.Client{Timeout: 5 * time.Second, Transport: ft},
				})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() { defer wg.Done(); w.Run(ctx) }()
			}
			t.Cleanup(func() { stop(); wg.Wait() })

			j, err := svc.Submit(grid)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(3 * time.Minute)
			for {
				st := j.Status()
				if st.State == service.StateDone {
					break
				}
				if st.State == service.StateFailed || st.State == service.StateCancelled {
					t.Fatalf("sweep ended %s under faults: %+v", st.State, st)
				}
				if time.Now().After(deadline) {
					t.Fatalf("sweep never finished under fault schedule seed %d: %+v", seed, st)
				}
				time.Sleep(25 * time.Millisecond)
			}
			rep, err := j.Results(true)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.Encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("envelope under fault schedule differs from `renosweep -stable`")
			}
			for i, ft := range transports {
				fs := ft.Stats()
				t.Logf("worker %d faults: %+v", i, fs)
				if fs.Requests == 0 {
					t.Errorf("worker %d transport saw no traffic; fault schedule exercised nothing", i)
				}
			}
		})
	}
}
