package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"reno/internal/service"
)

// spanHeader carries the client span's ID to the server-side wrapper, so
// the handler span nests under the HTTP call that caused it.
const spanHeader = "X-Perfbench-Span"

// server is an in-process renoserve: the service, its HTTP handler, and a
// loopback listener, as cmd/renoserve assembles them for the standalone
// role.
type server struct {
	svc  *service.Service
	srv  *http.Server
	base string
	errc chan error

	closeOnce sync.Once
	closeErr  error
}

// startServer opens the service with cfg and serves its handler on a
// loopback port. The span recorded around service.New is store.warm_load
// when cfg names a store (opening it warm-loads every persisted result).
func startServer(cfg service.Config, tr *tracer) (*server, error) {
	sp := tr.begin("store.warm_load", 0, "")
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	loaded := 0
	if st := svc.Stats().Store; st != nil {
		loaded = st.Loaded
	}
	tr.end(sp, int64(loaded))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: traced(service.NewHandler(svc), tr)},
		base: "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains the service, then stops the listener and waits for its
// serve loop to return. Only the first call does the work; later calls
// return its error.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.svc.Close(ctx)
		if serr := s.srv.Shutdown(ctx); err == nil {
			err = serr
		}
		if serr := <-s.errc; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		s.closeErr = err
	})
	return s.closeErr
}

// traced wraps the service handler with server-side spans named after the
// route they serve.
func traced(h http.Handler, tr *tracer) http.Handler {
	if !tr.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		sp := tr.begin(routeSpan(r), parent, "")
		h.ServeHTTP(w, r)
		tr.end(sp, 0)
	})
}

// routeSpan names the server-side span of a request.
func routeSpan(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "service.submit"
	case strings.HasSuffix(r.URL.Path, "/events"):
		return "service.events"
	case strings.HasSuffix(r.URL.Path, "/results"):
		return "service.results"
	case r.Method == http.MethodDelete:
		return "service.delete"
	}
	return "service.status"
}

// client drives one server over HTTP.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, http: &http.Client{Timeout: 170 * time.Second}, tr: tr}
}

// sweepReply is what one submitted sweep returned to the client.
type sweepReply struct {
	ID      string
	Latency time.Duration // POST sent to results body received
	Results []byte        // the stable results envelope
	State   service.State // the terminal state the event stream ended on
	Status  service.Status
}

// sweep submits spec, follows the job's event stream to its terminal
// state, and fetches the stable results: one operation, timed from the
// POST to the last byte of the results. It then reads the job's status
// and deletes the job, outside the timed interval. Any non-2xx response
// is an error.
func (c *client) sweep(ctx context.Context, spec []byte, req string) (*sweepReply, error) {
	t0 := time.Now()
	op := c.tr.begin("op.sweep", 0, req)
	rep := &sweepReply{}

	var st service.Status
	body, err := c.do(ctx, http.MethodPost, "/v1/sweeps", spec, "http.post", op, req)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("submit reply: %w", err)
	}
	rep.ID = st.ID

	sp := c.tr.begin("http.events", op, req)
	state, err := c.events(ctx, rep.ID, sp)
	c.tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	rep.State = state

	sp = c.tr.begin("http.results", op, req)
	rep.Results, err = c.get(ctx, "/v1/sweeps/"+rep.ID+"/results", sp)
	c.tr.end(sp, int64(len(rep.Results)))
	if err != nil {
		return nil, err
	}
	rep.Latency = time.Since(t0)
	c.tr.end(op, 0)

	status, err := c.get(ctx, "/v1/sweeps/"+rep.ID, 0)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(status, &rep.Status); err != nil {
		return nil, fmt.Errorf("status reply: %w", err)
	}
	c.recordJob(rep.Status, op, req)
	if _, err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+rep.ID, nil, "", 0, req); err != nil {
		return nil, err
	}
	return rep, nil
}

// recordJob turns the job's own timestamps into the service's queue-wait
// and run spans.
func (c *client) recordJob(st service.Status, parent int, req string) {
	if !c.tr.on {
		return
	}
	created, err1 := time.Parse(time.RFC3339Nano, st.Created)
	started, err2 := time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	c.tr.record("service.queue_wait", parent, req, c.tr.at(created), c.tr.at(started), 0)
	c.tr.record("service.run", parent, req, c.tr.at(started), c.tr.at(finished), int64(st.Runs))
}

// events reads the job's NDJSON stream to its end and returns the state of
// the terminal event, which the service always sends last.
func (c *client) events(ctx context.Context, id string, parent int) (service.State, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if parent != 0 {
		hreq.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return "", fmt.Errorf("events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	var last service.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return "", fmt.Errorf("events %s: %w", id, err)
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events %s: %w", id, err)
	}
	if last.Type != "state" {
		return "", fmt.Errorf("events %s: stream ended without a terminal state", id)
	}
	return last.State, nil
}

func (c *client) get(ctx context.Context, path string, parent int) ([]byte, error) {
	return c.send(ctx, http.MethodGet, path, nil, parent)
}

// do sends one request under a client span named name (none when empty).
func (c *client) do(ctx context.Context, method, path string, body []byte, name string, parent int, req string) ([]byte, error) {
	sp := 0
	if name != "" {
		sp = c.tr.begin(name, parent, req)
	}
	out, err := c.send(ctx, method, path, body, sp)
	c.tr.end(sp, int64(len(out)))
	return out, err
}

// send performs one request and returns its body; non-2xx is an error.
func (c *client) send(ctx context.Context, method, path string, body []byte, parent int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if parent != 0 {
		hreq.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}
