package backend

import (
	"context"

	"reno/internal/emu"
	"reno/internal/pipeline"
)

// detailedBackend wraps the cycle-level pipeline model. It is the fidelity
// reference: every field of Result.Pipe is meaningful.
type detailedBackend struct{}

func (detailedBackend) Kind() Kind { return Detailed }

func (detailedBackend) Run(ctx context.Context, req Request) (*Result, error) {
	ch := newCommitHasher()
	opts := req.Opts
	prev := opts.FeedObserver
	opts.FeedObserver = func(d emu.Dyn) {
		ch.add(d)
		if prev != nil {
			prev(d)
		}
	}
	res, arch, err := pipeline.RunProgram(ctx, req.Cfg, req.Code, req.Warmup, req.MaxInsts, opts)
	return &Result{Pipe: res, ArchHash: arch, CommitHash: ch.sum()}, err
}
