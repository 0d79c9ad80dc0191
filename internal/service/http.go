package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"reno/metrics"
	"reno/sim"
)

// maxSpecBytes bounds a submitted grid spec; real grids are a few KB.
const maxSpecBytes = 1 << 20

// DefaultListLimit caps GET /v1/sweeps when the client sends no ?limit=: a
// long-lived daemon accumulates unbounded job history, and an unpaginated
// list would make the cheapest endpoint the most expensive one. Clients
// page with ?cursor= (the next_cursor of the previous response).
var DefaultListLimit = 100

// MaxListLimit caps an explicit ?limit=; larger requests are clamped, not
// refused.
const MaxListLimit = 1000

// NewHandler returns the renoserve HTTP API over svc (see docs/service.md
// for the full contract):
//
//	POST   /v1/sweeps              submit a grid (v1/v2 schema) → job status
//	GET    /v1/sweeps              list jobs, submission order; paginated
//	                               (?limit=, ?cursor=; default cap 100)
//	GET    /v1/sweeps/{id}         job status + cache-hit stats
//	DELETE /v1/sweeps/{id}         cancel a queued/running job; delete a
//	                               finished one
//	GET    /v1/sweeps/{id}/results reno.metrics/v1 envelope (?stable=0 for
//	                               wall-clock telemetry; default stable)
//	GET    /v1/sweeps/{id}/events  NDJSON stream of per-run completions
//	GET    /v1/registry            benchmarks, machines, RENO configs
//	GET    /v1/healthz             liveness + scheduler/cache stats
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
			// Build and uptime make mixed-version clusters diagnosable:
			// one curl per node answers "what commit is this?".
			Build         Build `json:"build"`
			UptimeSeconds int64 `json:"uptime_s"`
			Stats
		}{"ok", BuildIdentity(), int64(svc.Uptime().Seconds()), svc.Stats()})
	})
	mux.HandleFunc("GET /v1/registry", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sim.ListRegistered())
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		spec, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(spec) > maxSpecBytes {
			writeError(w, http.StatusRequestEntityTooLarge, errors.New("grid spec exceeds 1 MiB"))
			return
		}
		j, err := svc.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest // spec problem, renosweep -validate wording
			if errors.Is(err, ErrQueueFull) {
				// Transient: the queue will drain — come back shortly.
				code = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrJournal) {
				// Draining, or the job could not be made durable: this
				// instance refuses intake; a clean refusal with a backoff
				// hint, never a connection reset.
				code = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "5")
			}
			writeError(w, code, err)
			return
		}
		w.Header().Set("Location", "/v1/sweeps/"+j.ID())
		writeJSON(w, http.StatusAccepted, j.Status())
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		limit := DefaultListLimit
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, http.StatusBadRequest, errors.New("limit must be a positive integer"))
				return
			}
			limit = min(n, MaxListLimit)
		}
		jobs, next := svc.JobsPage(r.URL.Query().Get("cursor"), limit)
		list := make([]Status, len(jobs))
		for i, j := range jobs {
			list[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, struct {
			Sweeps []Status `json:"sweeps"`
			// NextCursor resumes the listing: pass it back as ?cursor=.
			// Absent on the final page.
			NextCursor string `json:"next_cursor,omitempty"`
		}{list, next})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := svc.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep "+r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		cancelled, err := svc.Cancel(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if cancelled {
			// Re-fetch under ok: a concurrent DELETE may have removed the
			// record between our settle and this lookup.
			if j, ok := svc.Job(id); ok {
				writeJSON(w, http.StatusOK, j.Status())
			} else {
				writeJSON(w, http.StatusOK, struct {
					ID      string `json:"id"`
					Deleted bool   `json:"deleted"`
				}{id, true})
			}
			return
		}
		// Already terminal: DELETE removes the record instead, reclaiming
		// its results and event history (the run cache is unaffected).
		removed, err := svc.Remove(id)
		if err != nil {
			// A concurrent DELETE got there first: the job is gone.
			writeError(w, http.StatusNotFound, err)
			return
		}
		if !removed {
			writeError(w, http.StatusConflict, errors.New("sweep is settling; retry"))
			return
		}
		writeJSON(w, http.StatusOK, struct {
			ID      string `json:"id"`
			Deleted bool   `json:"deleted"`
		}{id, true})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		j, ok := svc.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep "+r.PathValue("id")))
			return
		}
		stable := true
		if v := r.URL.Query().Get("stable"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, errors.New("stable must be a boolean"))
				return
			}
			stable = b
		}
		rep, err := j.Results(stable)
		if errors.Is(err, ErrNotFinished) {
			writeError(w, http.StatusConflict, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeEnvelope(w, rep)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := svc.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown sweep "+r.PathValue("id")))
			return
		}
		streamEvents(w, r, j)
	})
	return mux
}

// streamEvents writes the job's event history as NDJSON and follows the
// live stream until the job reaches a terminal state or the client goes
// away. Each line is one service.Event; the final line is always the
// terminal "state" event.
func streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		evs, next, terminal, updated := j.Events(cursor)
		cursor = next
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEnvelope streams the canonical envelope bytes — with stable, the
// exact bytes `renosweep -stable` emits for the grid. Encode checks every
// value before its first write, so a report it refuses is answered 500
// with the uniform error body; once bytes are out, a write error means the
// client went away and there is no one left to tell.
func writeEnvelope(w http.ResponseWriter, rep *metrics.Report) {
	w.Header().Set("Content-Type", "application/json")
	sw := &sentWriter{w: w}
	if err := rep.Encode(sw); err != nil && !sw.sent {
		writeError(w, http.StatusInternalServerError, err)
	}
}

// sentWriter records whether anything was written through it.
type sentWriter struct {
	w    io.Writer
	sent bool
}

func (s *sentWriter) Write(p []byte) (int, error) {
	s.sent = true
	return s.w.Write(p)
}

// writeJSON emits v as an indented JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the uniform {"error": "..."} body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
