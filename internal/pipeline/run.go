package pipeline

import (
	"context"
	"fmt"

	"reno/internal/emu"
	"reno/internal/isa"
)

// warmupCtxInterval is how many functional warmup steps pass between
// context polls.
const warmupCtxInterval = 4096

// Warmup executes the first n dynamic instructions of code functionally
// only (the paper's sampling-warmup methodology) and returns the machine
// positioned at the first timed instruction. It polls ctx every
// warmupCtxInterval steps and returns ctx's error once it is done.
func Warmup(ctx context.Context, code []isa.Inst, n uint64) (*emu.Machine, error) {
	m := emu.New(code)
	done := ctx.Done()
	for m.ICount < n && !m.Halted {
		if done != nil && m.ICount%warmupCtxInterval == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if _, err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RunProgram times a program on the given configuration under ctx and opts.
// The first warmup dynamic instructions execute functionally only; timing
// then runs until the program halts or maxInsts instructions commit (0 = no
// limit). The final architectural state hash is returned for
// cross-configuration equivalence checks. On cancellation during timing it
// returns the partial Result together with the architectural hash of the
// state reached and ctx's error; cancellation during functional warmup
// returns a nil Result (no cycles were timed yet).
func RunProgram(ctx context.Context, cfg Config, code []isa.Inst, warmup, maxInsts uint64, opts RunOptions) (*Result, uint64, error) {
	m, err := Warmup(ctx, code, warmup)
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline warmup: %w", err)
	}
	cfg.MaxInsts = maxInsts
	var ferr error
	s := New(cfg, func() (emu.Dyn, bool) {
		if m.Halted || (maxInsts > 0 && m.ICount >= warmup+maxInsts) {
			return emu.Dyn{}, false
		}
		d, err := m.Step()
		if err != nil {
			ferr = err
			return emu.Dyn{}, false
		}
		if opts.FeedObserver != nil {
			opts.FeedObserver(d)
		}
		return d, true
	})
	res, err := s.RunContext(ctx, opts)
	if err != nil {
		// Cancellation: res is the partial snapshot (nil on internal
		// errors); the hash covers the state actually reached.
		return res, m.StateHash(), err
	}
	if ferr != nil {
		return nil, 0, fmt.Errorf("pipeline trace feed: %w", ferr)
	}
	return res, m.StateHash(), nil
}
