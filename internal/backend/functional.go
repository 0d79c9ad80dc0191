package backend

import (
	"context"
	"fmt"

	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/pipeline"
)

// ctxCheckInterval is how many timed steps pass between context polls.
const ctxCheckInterval = 4096

// functionalBackend executes the program on the emulator and drives the
// elimination engine over the committed stream — no timing model at all.
// Result.Pipe carries instruction counts, elimination statistics, and
// resource telemetry; Cycles and IPC are zero.
type functionalBackend struct{}

func (functionalBackend) Kind() Kind { return Functional }

func (functionalBackend) Run(ctx context.Context, req Request) (*Result, error) {
	return runEngine(ctx, req, nil, nil)
}

// engineRun is the state shared by the functional and approx backends after
// the emulator/engine loop drains.
type engineRun struct {
	eng   *elim.Engine
	m     *emu.Machine
	insts uint64
	stop  string
}

// runEngine is the common emulator-plus-engine loop: functional warmup, then
// one engine decision per committed instruction under the same instruction
// budget the detailed feed applies. hook (may be nil) observes each timed
// instruction with its decision; finishHook (may be nil) stamps
// backend-specific timing fields onto the result before percentages are
// derived.
func runEngine(ctx context.Context, req Request, hook func(d emu.Dyn, dec elim.Decision), finishHook func(run *engineRun, r *pipeline.Result)) (*Result, error) {
	if err := req.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	m, err := pipeline.Warmup(ctx, req.Code, req.Warmup)
	if err != nil {
		return nil, fmt.Errorf("backend warmup: %w", err)
	}

	// Fast path: a configuration with no elimination mechanism decides
	// every instruction conventionally and counts nothing — the engine is
	// pure overhead, so baseline screening runs at emulator speed. The
	// hook still receives the (zero) decision each instruction.
	var eng *elim.Engine
	if req.Cfg.Reno.AnyEnabled() {
		eng = elim.New(req.Cfg.Reno, req.Cfg.ROBSize, req.Cfg.RenameWidth)
	}
	ch := newCommitHasher()
	run := &engineRun{eng: eng, m: m}
	done := ctx.Done()
	canceled := false
	var dec elim.Decision
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
			dec, err = eng.Next(d)
			if err != nil {
				return nil, err
			}
		}
		if hook != nil {
			hook(d, dec)
		}
		run.insts++
	}
	switch {
	case canceled:
		run.stop = "canceled"
	case req.MaxInsts > 0 && m.ICount >= req.Warmup+req.MaxInsts:
		run.stop = "max-insts"
	}

	r := &pipeline.Result{
		Config:     req.Cfg,
		StopReason: run.stop,
		Insts:      run.insts,
	}
	if eng != nil {
		// Untimed runs never squash, so every decided instruction commits:
		// the engine's rename-time statistics are exact commit tallies.
		r.SetEngineStats(eng)
		r.ReexecFails = r.Reno.ReexecFails
	}
	if finishHook != nil {
		finishHook(run, r)
	}
	r.Derive()
	res := &Result{Pipe: r, ArchHash: m.StateHash(), CommitHash: ch.sum()}
	if canceled {
		return res, ctx.Err()
	}
	return res, nil
}
