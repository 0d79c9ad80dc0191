// Command renoserve is the long-running sweep service: a daemon that
// accepts declarative experiment grids over HTTP, schedules them on the
// bounded sweep worker pool, serves previously computed grid cells from a
// run-key result cache instead of re-simulating them, and streams per-run
// progress as NDJSON. It is a thin flag parser over internal/service and
// internal/cluster; the API contract lives in docs/service.md and the
// cluster protocol in docs/cluster.md.
//
//	renoserve -addr :8844 -store /var/lib/reno/results
//
//	# submit the golden v2 grid, then watch it run
//	curl -s -X POST --data-binary @internal/sweep/testdata/grid_v2.json \
//	    localhost:8844/v1/sweeps
//	curl -s localhost:8844/v1/sweeps/sw-000001/events   # NDJSON stream
//	curl -s localhost:8844/v1/sweeps/sw-000001/results  # the envelope
//
// GET /v1/sweeps/{id}/results is byte-identical to `renosweep -stable` on
// the same grid, and resubmitting an identical grid is served entirely
// from cache. With -store, the cache keeps a disk tier in a persistent
// content-addressed directory: results survive restarts (even SIGKILL —
// every entry is written atomically as its run completes), warm-load into
// memory on start, and may be shared between daemons. SIGINT/SIGTERM
// drain gracefully: intake stops first (POST refuses with 503 +
// Retry-After while every other endpoint keeps serving), running sweeps
// get -drain to finish, and only then does the listener close — in-flight
// clients never see a connection reset.
//
// -role shards sweep execution across machines. The default, standalone,
// is exactly the daemon described above. A coordinator serves the same
// public API but executes cells by leasing batches to workers over
// /v1/cluster/; workers are thin pullers that run cells on their local
// pool and stream results back:
//
//	renoserve -role coordinator -addr :8844 -store /shared/results
//	renoserve -role worker -peers http://coord:8844 -addr :8845 \
//	    -store /shared/results
//
// A worker's -store is the bare directory, with no memory tier: it reads
// the directory before simulating a cell and writes what it simulates.
// -peers names the worker's one coordinator; a list is refused. Workers
// survive coordinator restarts (they back off and repoll), the
// coordinator survives worker crashes (leases expire and the cells
// requeue), and the assembled envelope is byte-identical to a standalone
// run of the same grid.
//
// A coordinator with a -store also keeps a write-ahead journal (default
// <store>/journal.ndjson, override with -journal) of job state: kill -9
// the coordinator mid-sweep, restart it on the same store, and the
// in-flight sweeps are restored and resumed — already-computed cells are
// skipped via the store, so nothing is simulated twice. One live
// coordinator owns a journal: a second one opened on the same path takes
// it over, and the first then refuses submissions with 503. See
// docs/cluster.md, "Durability".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"reno/internal/cluster"
	"reno/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8844", "listen address")
		workers  = flag.Int("workers", 0, "per-sweep worker pool size (0 = GOMAXPROCS; a grid's own workers field wins)")
		queue    = flag.Int("queue", 0, "max jobs queued behind the running ones (0 = 64)")
		runners  = flag.Int("runners", 0, "concurrently running sweeps (0 = 1)")
		cache    = flag.Int("cache", 0, "max results in the in-memory cache, evicted LRU (0 = 65536, negative = unbounded)")
		storeDir = flag.String("store", "", "persistent result store directory (empty = in-memory only; the cache then dies with the daemon)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight runs are cancelled")

		role     = flag.String("role", "standalone", "standalone | coordinator | worker")
		peers    = flag.String("peers", "", "coordinator base URL (worker role; exactly one)")
		leaseTTL = flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "lease lifetime without a heartbeat before cells requeue (coordinator role)")
		workerID = flag.String("worker-id", "", "this worker's name in cluster state (worker role; default host-pid)")
		poll     = flag.Duration("poll", cluster.DefaultPoll, "idle lease-poll interval (worker role)")

		journalPath = flag.String("journal", "", "write-ahead journal for durable job state (coordinator role; empty = <store>/journal.ndjson when -store is set, \"off\" = disabled)")
	)
	flag.Parse()

	switch *role {
	case "standalone", "coordinator", "worker":
	default:
		fatal(fmt.Errorf("unknown -role %q (want standalone, coordinator, or worker)", *role))
	}
	if *role != "coordinator" && *journalPath != "" {
		fatal(errors.New("-journal requires -role coordinator"))
	}
	if *role == "worker" {
		runWorker(*addr, *peers, *workerID, *workers, *poll, *storeDir)
		return
	}
	jpath := *journalPath
	switch {
	case jpath == "off":
		jpath = ""
	case jpath == "" && *role == "coordinator" && *storeDir != "":
		jpath = filepath.Join(*storeDir, "journal.ndjson")
	}

	// Assemble the serving stack: journal (replayed), cluster coordinator,
	// scheduler with restored jobs, and the mounted handler.
	cfg := service.Config{
		Workers: *workers, QueueDepth: *queue, Runners: *runners,
		CacheEntries: *cache, StoreDir: *storeDir,
	}
	var coord *cluster.Coordinator
	var jnl *cluster.Journal
	if *role == "coordinator" {
		if jpath != "" {
			var err error
			if jnl, err = cluster.OpenJournal(jpath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "renoserve: journal at %s (%d in-flight sweeps recovered)\n", jpath, len(jnl.Recovered()))
		}
		coord = cluster.NewCoordinator(cluster.CoordinatorConfig{LeaseTTL: *leaseTTL, Journal: jnl})
		cfg.Dispatcher = coord
	}
	svc, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}
	if jnl != nil {
		// Re-enqueue the journaled in-flight sweeps under their original
		// IDs before the listener opens; each dispatch's cache pass then
		// resolves every cell whose result already reached the store, so
		// recovery re-simulates nothing twice.
		for _, rs := range jnl.Recovered() {
			if _, err := svc.Restore(rs.ID, rs.Spec); err != nil {
				fmt.Fprintf(os.Stderr, "renoserve: restore %s: %v\n", rs.ID, err)
				continue
			}
			fmt.Fprintf(os.Stderr, "renoserve: restored %s\n", rs.ID)
		}
	}
	handler := service.NewHandler(svc)
	if coord != nil {
		// One listener serves both planes: the public API and, under
		// /v1/cluster/, the worker-facing protocol.
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", coord.Handler())
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *storeDir != "" {
		fmt.Fprintf(os.Stderr, "renoserve: result store at %s\n", *storeDir)
	}
	fmt.Fprintf(os.Stderr, "renoserve: %s listening on %s\n", *role, *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Shutdown ordering: stop intake before anything else, so submissions
	// racing the signal get a clean 503 + Retry-After (not a reset) while
	// the listener keeps serving status, results, and event streams for
	// the jobs still draining.
	svc.StopIntake()
	fmt.Fprintf(os.Stderr, "renoserve: draining (budget %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Close(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "renoserve: drain budget exceeded, in-flight runs cancelled\n")
	}
	if coord != nil {
		// After the drain every sweep is settled and journaled done; this
		// syncs and closes the journal.
		coord.Close()
	}
	// Jobs are settled now, so open event streams have ended; give the
	// HTTP server a short fresh window to flush remaining responses, and
	// only then stop listening.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := srv.Shutdown(hctx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, "renoserve: stopped")
}

// runWorker runs the worker role: no scheduler, no public sweep API — just
// the pull loop against the coordinator plus a /v1/healthz of its own.
func runWorker(addr, peers, id string, capacity int, poll time.Duration, storeDir string) {
	coord := strings.TrimRight(strings.TrimSpace(peers), "/")
	if coord == "" {
		fatal(errors.New("worker role requires -peers http://coordinator:port"))
	}
	if strings.Contains(coord, ",") {
		fatal(fmt.Errorf("-peers %q: only one coordinator is supported", peers))
	}
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var store *service.DiskStore
	if storeDir != "" {
		var err error
		if store, err = service.OpenDiskStore(storeDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "renoserve: result store at %s\n", storeDir)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		ID: id, Coordinator: coord, Capacity: capacity, Poll: poll, Store: store,
	})
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Addr: addr, Handler: w.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "renoserve: worker %s polling %s, listening on %s\n", id, coord, addr)

	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// The pull loop stops with the signal context; leased cells already
	// finished are uploaded, the rest requeue when the lease expires.
	<-done
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := srv.Shutdown(hctx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, "renoserve: worker stopped")
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintf(os.Stderr, "renoserve: %v\n", err)
	os.Exit(1)
}
