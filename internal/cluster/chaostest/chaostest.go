// Package chaostest drives real renoserve processes through fault
// schedules — worker SIGKILL, coordinator SIGKILL plus restart on the
// same journal, a second coordinator taking over the first one's journal,
// and seeded drop/duplicate/delay faults on the worker↔coordinator HTTP
// path — and asserts the one property every schedule must preserve: the
// final sweep envelope is byte-identical to a standalone
// `renosweep -stable` run of the same grid.
//
// The package is a small process-and-HTTP toolkit (Proc, Client,
// FaultTransport); the schedules themselves live in its test files and
// run both under plain `go test` (a light grid) and in the cluster-chaos
// CI job (RENO_CHAOS_FULL=1 widens the grid to 32 cells and
// RENO_CHAOS_SEEDS pins the fault-schedule seeds).
package chaostest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Proc is one spawned renoserve (or renosweep) process. Its whole point
// is dying badly: Kill9 delivers SIGKILL with no warning, exactly like
// the OOM killer or a power cut, and the harness then asserts the
// survivors converge.
type Proc struct {
	Name string
	cmd  *exec.Cmd
	done chan error // closed by the goroutine that Waits on cmd
}

// StartProc launches bin with args, teeing its stdout+stderr to logw
// (prefix each line yourself via the writer if several procs share one).
func StartProc(name string, logw io.Writer, bin string, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logw
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &Proc{Name: name, cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait(); close(p.done) }()
	return p, nil
}

// Kill9 SIGKILLs the process and reaps it. Idempotent: a second call (or
// a call after Stop) is a no-op.
func (p *Proc) Kill9() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// Stop asks for a graceful shutdown (SIGTERM) and escalates to SIGKILL
// if the process outlives the budget. Returns the process error, which
// for a clean renoserve drain is nil.
func (p *Proc) Stop(budget time.Duration) error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(budget):
		p.cmd.Process.Signal(syscall.SIGKILL)
		<-p.done
		return fmt.Errorf("%s ignored SIGTERM for %s, killed", p.Name, budget)
	}
}

// FreeAddr reserves an ephemeral localhost port and releases it for the
// caller to bind. The tiny race (another process grabbing it between
// close and bind) is acceptable in tests.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// Client speaks the renoserve public API, with the retry posture a chaos
// harness needs: every call tolerates the server being mid-crash, and
// the polling calls keep going while a coordinator restarts underneath
// them.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient wraps a base URL ("http://127.0.0.1:port").
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{Timeout: 10 * time.Second}}
}

// WaitHealthy polls /v1/healthz until it answers 200 with the given
// status ("ok" for a serving node).
func (c *Client) WaitHealthy(status string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		h, err := c.Healthz()
		if err == nil && h["status"] == status {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not %q after %s (last: %v, err %v)", c.Base, status, timeout, h, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Healthz fetches and decodes /v1/healthz.
func (c *Client) Healthz() (map[string]any, error) {
	return c.getJSON("/v1/healthz")
}

// ClusterState fetches /v1/cluster/state (coordinator role only).
func (c *Client) ClusterState() (map[string]any, error) {
	return c.getJSON("/v1/cluster/state")
}

// Submit posts a grid spec and returns the accepted sweep ID.
func (c *Client) Submit(spec []byte) (string, error) {
	resp, err := c.HTTP.Post(c.Base+"/v1/sweeps", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// Status fetches one sweep's status object.
func (c *Client) Status(id string) (map[string]any, error) {
	return c.getJSON("/v1/sweeps/" + id)
}

// WaitState polls a sweep until it reaches a terminal state, shrugging
// off transport errors and 404s along the way — during a coordinator
// restart the job briefly does not exist until the journal is replayed.
func (c *Client) WaitState(id string, timeout time.Duration) (map[string]any, error) {
	deadline := time.Now().Add(timeout)
	var last map[string]any
	var lastErr error
	for {
		st, err := c.Status(id)
		if err == nil {
			last = st
			switch st["state"] {
			case "done", "failed", "cancelled":
				return st, nil
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("sweep %s not terminal after %s (last status %v, last err %v)", id, timeout, last, lastErr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Results fetches the stable envelope bytes for a finished sweep.
func (c *Client) Results(id string) ([]byte, error) {
	resp, err := c.HTTP.Get(c.Base + "/v1/sweeps/" + id + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results %s: %s: %s", id, resp.Status, body)
	}
	return body, nil
}

func (c *Client) getJSON(path string) (map[string]any, error) {
	resp, err := c.HTTP.Get(c.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Reference produces the ground truth every schedule is judged against:
// the envelope `renosweep -grid <gridPath> -stable` writes as a single
// local process, no cluster anywhere near it.
func Reference(renosweepBin, gridPath string) ([]byte, error) {
	out := filepath.Join(os.TempDir(), fmt.Sprintf("chaos-ref-%d.json", os.Getpid()))
	defer os.Remove(out)
	cmd := exec.Command(renosweepBin, "-grid", gridPath, "-stable", "-quiet", "-o", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("renosweep reference: %w: %s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, errors.New("renosweep reference wrote an empty envelope")
	}
	return data, nil
}
