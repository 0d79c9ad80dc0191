package backend

import (
	"context"
	"fmt"

	"reno/internal/elim"
	"reno/internal/pipeline"
	"reno/internal/reno"
)

// ctxCheckInterval is how many timed steps pass between context polls.
const ctxCheckInterval = 4096

// functionalBackend executes the program on the emulator and drives the
// elimination engine over the committed stream — no timing model at all.
// Result.Pipe carries instruction counts, elimination statistics, and
// resource telemetry; Cycles and IPC are zero.
type functionalBackend struct{}

func (functionalBackend) Kind() Kind { return Functional }

// Run is the emulator-plus-engine loop: functional warmup, then one engine
// decision per committed instruction under the same instruction budget the
// detailed feed applies.
func (functionalBackend) Run(ctx context.Context, req Request) (*Result, error) {
	if err := req.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	m, err := pipeline.Warmup(ctx, req.Code, req.Warmup)
	if err != nil {
		return nil, fmt.Errorf("backend warmup: %w", err)
	}

	// Fast path: a configuration with no elimination mechanism decides
	// every instruction conventionally and counts nothing — the engine is
	// pure overhead, so baseline screening runs at emulator speed.
	var eng *elim.Engine
	if req.Cfg.Reno.AnyEnabled() {
		eng = elim.New(req.Cfg.Reno, req.Cfg.ROBSize, req.Cfg.RenameWidth)
	}
	var ren reno.Renamed // decision scratch: an untimed run never reads it
	ch := newCommitHasher()
	done := ctx.Done()
	canceled := false
	var insts uint64
	for !m.Halted && !(req.MaxInsts > 0 && m.ICount >= req.Warmup+req.MaxInsts) {
		if done != nil && m.ICount%ctxCheckInterval == 0 {
			select {
			case <-done:
				canceled = true
			default:
			}
			if canceled {
				break
			}
		}
		d, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("backend trace feed: %w", err)
		}
		if req.Opts.FeedObserver != nil {
			req.Opts.FeedObserver(d)
		}
		ch.add(d)
		if eng != nil {
			if _, err := eng.NextInto(&d, &ren); err != nil {
				return nil, err
			}
		}
		insts++
	}
	var stop string
	switch {
	case canceled:
		stop = "canceled"
	case req.MaxInsts > 0 && m.ICount >= req.Warmup+req.MaxInsts:
		stop = "max-insts"
	}

	r := &pipeline.Result{
		Config:     req.Cfg,
		StopReason: stop,
		Insts:      insts,
	}
	if eng != nil {
		// Untimed runs never squash, so every decided instruction commits:
		// the engine's rename-time statistics are exact commit tallies.
		r.SetEngineStats(eng)
		r.ReexecFails = r.Reno.ReexecFails
	}
	r.Derive()
	res := &Result{Pipe: r, ArchHash: m.StateHash(), CommitHash: ch.sum()}
	if canceled {
		return res, ctx.Err()
	}
	return res, nil
}
