package backend

import (
	"context"
	"fmt"

	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/pipeline"
)

// functionalBackend executes the program on the emulator and drives the
// elimination engine over the committed stream — no timing model at all.
// Result.Pipe carries instruction counts, elimination statistics, and
// resource telemetry; Cycles and IPC are zero.
type functionalBackend struct{}

func (functionalBackend) Kind() Kind { return Functional }

// Run is the emulator-plus-engine loop: one engine decision per
// instruction of the same trace feed the detailed pipeline pulls from.
func (functionalBackend) Run(ctx context.Context, req Request) (*Result, error) {
	f, err := feed(ctx, req)
	if err != nil {
		return nil, err
	}

	// Fast path: a configuration with no elimination mechanism decides
	// every instruction conventionally and counts nothing — the engine is
	// pure overhead, so baseline screening runs at emulator speed.
	var eng *elim.Engine
	if req.Cfg.Reno.AnyEnabled() {
		eng = elim.New(req.Cfg.Reno, req.Cfg.ROBSize, req.Cfg.RenameWidth)
	}
	var insts uint64
	var d emu.Dyn
	canceled := f.Canceled()
	for ; !canceled && f.Next(&d); canceled = f.Canceled() {
		if eng != nil {
			if _, _, err := eng.Next(&d); err != nil {
				return nil, err
			}
		}
		insts++
	}
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("backend trace feed: %w", err)
	}
	var stop string
	switch {
	case canceled:
		stop = "canceled"
	case f.Spent():
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
	res := &Result{Pipe: r, ArchHash: f.ArchHash(), CommitHash: f.CommitHash()}
	if canceled {
		return res, ctx.Err()
	}
	return res, nil
}
